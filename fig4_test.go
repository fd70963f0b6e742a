package lrd_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"lrd"
)

// fig4References is the benchmark's committed reference file: the paper's
// Fig. 4 grid and utilization, and for each MTV trace seed the bracket
// [lower, upper] of every cell in row-major (buffer-outer) order.
const fig4References = "bench/testdata/fig4-brackets.json"

// TestFig4PoolMatchesReference sweeps the full Fig. 4 grid on every trace
// of the benchmark's pool, as the benchmark's sweep does, and checks each
// cell as it does: converged and not degraded, an ordered bracket around
// the reported loss, loss nonincreasing in buffer in the bracket sense, and
// a bracket that intersects the committed reference (any two valid
// Prop. II.1 brackets of a queue contain its loss). The references were
// computed once, so a numerics change meets them here as well as in the
// benchmark run. It logs the sweeps' total Lindley steps.
func TestFig4PoolMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 17 traces × 90 cells")
	}
	raw, err := os.ReadFile(fig4References)
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Util    float64                 `json:"util"`
		Buffers []float64               `json:"buffers_s"`
		Cutoffs []string                `json:"cutoffs_s"` // "inf" for no cutoff
		Traces  map[string][][2]float64 `json:"traces"`
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("%s: %v", fig4References, err)
	}
	cutoffs := make([]float64, len(ref.Cutoffs))
	for j, c := range ref.Cutoffs {
		cutoffs[j] = math.Inf(1)
		if c != "inf" {
			if cutoffs[j], err = strconv.ParseFloat(c, 64); err != nil {
				t.Fatalf("%s: cutoff %q: %v", fig4References, c, err)
			}
		}
	}
	var seeds []int64
	for key := range ref.Traces {
		seed, err := strconv.ParseInt(key, 10, 64)
		if err != nil {
			t.Fatalf("%s: trace key %q: %v", fig4References, key, err)
		}
		seeds = append(seeds, seed)
	}
	slices.Sort(seeds)
	if len(seeds) == 0 {
		t.Fatalf("%s holds no traces", fig4References)
	}

	nb, nc := len(ref.Buffers), len(cutoffs)
	reg := lrd.NewMetricsRegistry()
	sc := lrd.SweepConfig{Solver: lrd.SolverConfig{Recorder: reg}, Workers: runtime.NumCPU()}
	for _, seed := range seeds {
		brackets := ref.Traces[strconv.FormatInt(seed, 10)]
		if len(brackets) != nb*nc {
			t.Fatalf("trace %d: %d reference brackets, want %d", seed, len(brackets), nb*nc)
		}
		tm, err := lrd.MTVModel(seed)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := lrd.LossVsBufferAndCutoff(context.Background(), tm, ref.Util, ref.Buffers, cutoffs, sc)
		if err != nil {
			t.Fatalf("trace %d: %v", seed, err)
		}
		if len(pts) != nb*nc {
			t.Fatalf("trace %d: %d cells, want %d", seed, len(pts), nb*nc)
		}
		for k, p := range pts {
			r := brackets[k]
			switch {
			case !p.Converged || p.Degraded != "":
				t.Errorf("trace %d, b=%g, tc=%g: not converged (degraded %q)", seed, p.NormalizedBuffer, p.Cutoff, p.Degraded)
			case !(p.Lower <= p.Upper):
				t.Errorf("trace %d, b=%g, tc=%g: inverted bracket [%g, %g]", seed, p.NormalizedBuffer, p.Cutoff, p.Lower, p.Upper)
			case !(p.Lower <= p.Loss && p.Loss <= p.Upper) && !(p.Loss == 0 && p.Upper <= 1e-10): // the loss floor
				t.Errorf("trace %d, b=%g, tc=%g: loss %g outside its bracket [%g, %g]", seed, p.NormalizedBuffer, p.Cutoff, p.Loss, p.Lower, p.Upper)
			}
			if p.Lower > r[1] || r[0] > p.Upper {
				t.Errorf("trace %d, b=%g, tc=%g: bracket [%g, %g] misses the reference [%g, %g]",
					seed, p.NormalizedBuffer, p.Cutoff, p.Lower, p.Upper, r[0], r[1])
			}
			if k >= nc {
				if prev := pts[k-nc]; p.Lower > prev.Upper {
					t.Errorf("trace %d, b=%g, tc=%g: loss increases with buffer: lower %g > upper %g at b=%g",
						seed, p.NormalizedBuffer, p.Cutoff, p.Lower, prev.Upper, prev.NormalizedBuffer)
				}
			}
		}
	}
	t.Logf("%d traces × %d cells: %.0f Lindley steps", len(seeds), nb*nc, reg.CounterValue("solver_steps_total"))
}
