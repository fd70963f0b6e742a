package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the orchestrator's child
// process, so the smoke test runs workloads exactly as real runs do.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads)+1 {
		t.Errorf("%d implementations for %d workloads plus the probes", len(workloads), len(spec.Workloads))
	}
	e2e := e2eMetrics(workloadResult{})
	for _, m := range spec.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not derived from a workload report", m.Name)
		}
	}
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("%d derived end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// TestSmoke runs every workload at smoke scale (one cell, one scenario),
// untraced and then traced with the layer probes (one fit, one served
// cell): each run must pass its correctness checks and report
// every metric BENCHMARK.json names, so harness rot fails the tests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes and an lrdserve server")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		lines int
		specs []metricSpec
	}{
		{[]string{"-scale", "smoke"}, len(spec.Workloads), spec.EndToEnd},
		{[]string{"-scale", "smoke", "-trace", "1"}, 1, spec.PerLayer},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench %v exited %d:\n%s", c.args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != c.lines {
			t.Fatalf("bench %v printed %d result lines, want %d:\n%s", c.args, len(lines), c.lines, stdout.String())
		}
		for _, line := range lines {
			var r resultLine
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bench %v: %v in %q", c.args, err, line)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("bench %v: correct %v, %d of %d failed", c.args, r.Correct, r.Failed, r.Attempted)
			}
			for _, m := range c.specs {
				if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("bench %v: metric %s missing or in the wrong unit: %+v", c.args, m.Name, v)
				}
			}
			if len(r.Metrics) != len(c.specs) {
				t.Errorf("bench %v: %d metrics, want %d", c.args, len(r.Metrics), len(c.specs))
			}
		}
	}
}
