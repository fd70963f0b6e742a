package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// probeWorkload names the layer probes, which run in a child process of
// their own like a workload but only in traced runs.
const probeWorkload = "probes"

// workloads maps each workload name of BENCHMARK.json, plus the probes,
// to the function that runs it inside a child process.
var workloads = map[string]func(*job) error{
	"sweep-fig4":     runSweep,
	"provision-pack": runProvision,
	probeWorkload:    runProbes,
}

// workloadResult is what one child process reports to the orchestrator.
type workloadResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    string `json:"scale"`
	Traced   bool   `json:"traced"`
	// Attempted counts the measured operations (cells, answers, probes,
	// fits, requests); Failures counts failed operations plus failed
	// correctness checks, so Failures/Attempted is the error ratio.
	Attempted      int      `json:"attempted"`
	Failures       int      `json:"failures"`
	FailureSamples []string `json:"failure_samples,omitempty"`
	// SetupS holds one duration per set-up repetition.
	SetupS []float64 `json:"setup_s"`
	// Units holds every unit of repeated work the run measured.
	Units []unit `json:"units"`
	// Facts are descriptive numbers of the run (passes, solves per answer,
	// ...), recorded but not compared.
	Facts map[string]float64 `json:"facts,omitempty"`
	// Layer holds the per-layer metrics this workload owns (traced runs).
	Layer     map[string]float64 `json:"layer,omitempty"`
	Residuals []residualRow      `json:"residuals,omitempty"`
}

// unit is one repetition of a workload's work — a pass over the Fig. 4
// grid or over the provision pack — as measured.
type unit struct {
	Ops     int     `json:"ops"` // cells or answers attempted
	Seconds float64 `json:"seconds"`
	// PeakRSSMB is the process's peak resident set (VmHWM) while the unit
	// ran: the peak is reset when the unit starts.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// opsPerSecond is the run's throughput: operations over the summed wall
// time of the units. Every unit of a run does the same kind of work, so
// this is the mean rate over the whole measured time, which holds steadier
// against the host's drifting speed than a median over the few units of a
// run.
func (r workloadResult) opsPerSecond() float64 {
	var ops, s float64
	for _, u := range r.Units {
		ops += float64(u.Ops)
		s += u.Seconds
	}
	return ops / s
}

// peakRSSMB is the median over the units of each unit's peak resident
// set. Every unit repeats the workload's work, so memory a change adds to
// that work shows in every unit, while a peak that one unit reached by the
// chance timing of a garbage collection does not move the median.
func (r workloadResult) peakRSSMB() float64 {
	peaks := make([]float64, len(r.Units))
	for i, u := range r.Units {
		peaks[i] = u.PeakRSSMB
	}
	return median(peaks)
}

// job is one workload run inside a child process.
type job struct {
	root    string
	seed    int64
	seconds time.Duration
	smoke   bool
	tr      *tracer // nil in untraced runs
	tmp     string  // scratch directory for journals, removed at exit
	res     workloadResult
}

// fail records a failed operation or correctness check.
func (j *job) fail(format string, args ...any) {
	j.res.Failures++
	if len(j.res.FailureSamples) < 10 {
		j.res.FailureSamples = append(j.res.FailureSamples, fmt.Sprintf(format, args...))
	}
}

func (j *job) fact(name string, v float64) {
	if j.res.Facts == nil {
		j.res.Facts = map[string]float64{}
	}
	j.res.Facts[name] = v
}

func (j *job) layer(name string, v float64) {
	if j.res.Layer == nil {
		j.res.Layer = map[string]float64{}
	}
	j.res.Layer[name] = v
}

// setup runs a workload's set-up once and records its duration. Workloads
// set up anew before every unit of measured work, so that setup_s, the
// median of the repetitions, samples the host's speed across the whole
// run as the throughput does, rather than in one burst at its start.
func (j *job) setup(f func() error) error {
	t0 := time.Now()
	if err := f(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	j.res.SetupS = append(j.res.SetupS, time.Since(t0).Seconds())
	return nil
}

// measuring reports whether a workload should start another unit of
// repeated work: always the first, and at full scale while the time since
// start plus half a mean unit is within the measured time, so that runs
// end on average when the measured time does. A unit that has started
// always finishes.
func (j *job) measuring(start time.Time) bool {
	n := len(j.res.Units)
	if n == 0 {
		return true
	}
	if j.smoke {
		return false
	}
	var s float64
	for _, u := range j.res.Units {
		s += u.Seconds
	}
	return time.Since(start).Seconds()+s/float64(n)/2 < j.seconds.Seconds()
}

// measure runs one unit of ops operations and records its wall time and
// the peak resident set the process reached while it ran.
func (j *job) measure(ops int, f func()) {
	resetPeakRSS("self")
	t0 := time.Now()
	f()
	j.res.Units = append(j.res.Units, unit{Ops: ops, Seconds: time.Since(t0).Seconds(), PeakRSSMB: peakRSSMB("self")})
}

func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "measured seconds")
		scale   = fs.String("scale", scaleFull, "full or smoke")
		traced  = fs.Bool("traced", false, "record spans and per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	base := filepath.Join(root, "bench", "out", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(base, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	j := &job{
		root: root, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		smoke: *scale == scaleSmoke, tmp: tmp,
		res: workloadResult{Workload: *name, Seed: *seed, Scale: *scale, Traced: *traced},
	}
	if *traced {
		j.tr = newTracer(*name)
	}
	if err := f(j); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if j.res.Attempted == 0 {
		fmt.Fprintf(stderr, "bench: %s attempted no operations\n", *name)
		return 1
	}
	if *name != probeWorkload && !(j.res.peakRSSMB() > 0) {
		fmt.Fprintf(stderr, "bench: %s: no peak resident set in /proc\n", *name)
		return 1
	}
	if j.tr != nil && !j.smoke && *name != probeWorkload {
		dir := filepath.Join(root, "bench", "out", "traced")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := j.tr.write(filepath.Join(dir, "spans-"+*name+".jsonl")); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	for k, v := range j.res.Layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: per-layer metric %s measured as %v\n", *name, k, v)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(j.res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}
