package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lrd"
	"lrd/internal/fft"
)

// probeBins are the resolutions the layer probes run at: the solver's
// starting rung, a typical converged rung, and a large one.
var probeBins = []int{256, 1024, 4096}

// The Fig. 4 cells whose cold solves the probes time, by grid index
// (buffer i, cutoff j), on the MTV trace of seed 1: a cell with the median
// time of a pass (b = 85 ms, Tc = 129 ms, ≈3.5 ms), and the slowest cell
// (b = 3 s, Tc = 129 ms, ≈3.4 s, four times the next slowest).
var (
	medianCell  = [2]int{3, 1}
	slowestCell = [2]int{8, 1}
)

// timeCalls calls f at least minCalls times and for at least minDur, and
// returns each call's duration in seconds.
func timeCalls(minCalls int, minDur time.Duration, f func() error) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) < minCalls || time.Since(start) < minDur; {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// probeQueue is the queue the solver probes iterate: the on/off source
// at H 0.8 with a 10 s cutoff, 80% utilization and half a second of
// buffering.
func probeQueue() (lrd.Queue, error) {
	src, err := onOffSource(0.8, 10)
	if err != nil {
		return lrd.Queue{}, err
	}
	return lrd.NewQueueNormalized(src, 0.8, 0.5)
}

// runProbes times single calls into each layer's public functions, with
// the shapes the workloads use them at, times trace fits, and probes the
// serving layer.
func runProbes(j *job) error {
	calls, dur := 5, 300*time.Millisecond
	if j.smoke {
		calls, dur = 1, 0
	}
	probe := func(name string, scale float64, minCalls int, f func() error) error {
		j.res.Attempted++
		ts, err := timeCalls(minCalls, dur, f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		j.layer(name, median(ts)*scale)
		return nil
	}
	rng := rand.New(rand.NewSource(j.seed))
	pmf := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		return x
	}

	// FFT: the solver's convolution shape (len M+1 ⊛ 2M+1) and the fit's
	// 64k periodogram.
	for _, m := range probeBins {
		a, b := pmf(m+1), pmf(2*m+1)
		if err := probe(fmt.Sprintf("fft.convolve_us.m%d", m), 1e6, 4*calls, func() error {
			fft.ConvolveReal(a, b)
			return nil
		}); err != nil {
			return err
		}
	}
	nTraces, fitReps := len(fitHursts), 3
	if j.smoke {
		nTraces, fitReps = 1, 1
	}
	traces, err := fitTraces(j.seed, nTraces)
	if err != nil {
		return err
	}
	if err := probe("fft.periodogram_ms.n65536", 1e3, calls, func() error {
		fft.Periodogram(traces[0].Rates)
		return nil
	}); err != nil {
		return err
	}
	if err := fitProbe(j, traces, fitReps); err != nil {
		return err
	}

	// Solver: table construction per rung and one Lindley step at fixed M.
	q, err := probeQueue()
	if err != nil {
		return err
	}
	for _, m := range probeBins {
		cfg := lrd.SolverConfig{InitialBins: m, MaxBins: m}
		if err := probe(fmt.Sprintf("solver.table_build_ms.m%d", m), 1e3, calls, func() error {
			_, err := lrd.NewIterator(q, cfg)
			return err
		}); err != nil {
			return err
		}
		it, err := lrd.NewIterator(q, cfg)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ { // leave the transient first steps out
			if err := it.Step(); err != nil {
				return err
			}
		}
		if err := probe(fmt.Sprintf("solver.step_us.m%d", m), 1e6, 4*calls, it.Step); err != nil {
			return err
		}
		if m == 1024 {
			const steps = 50
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for i := 0; i < steps; i++ {
				if err := it.Step(); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&b)
			j.res.Attempted++
			j.layer("solver.step_allocs.m1024", float64(b.Mallocs-a.Mallocs)/steps)
		}
	}

	// Solver: cold solves of two cells of the reference trace, the same in
	// every run so that the numbers compare across runs.
	tm, err := lrd.MTVModel(1)
	if err != nil {
		return err
	}
	buffers, cutoffs := fig4Grid(false)
	slowest := slowestCell
	if j.smoke {
		// A smoke run checks that every probe works, not the numbers; the
		// slowest cell alone would take seconds.
		slowest = medianCell
	}
	for _, c := range []struct {
		name  string
		at    [2]int
		calls int
	}{{"solver.solve_ms.cell_p50", medianCell, calls}, {"solver.solve_ms.cell_max", slowest, 1}} {
		ref, err := tm.Source(cutoffs[c.at[1]])
		if err != nil {
			return err
		}
		m, err := lrd.NewModelNormalized(lrd.NewFluidSource(ref), fig4Util, buffers[c.at[0]])
		if err != nil {
			return err
		}
		if err := probe(c.name, 1e3, c.calls, func() error {
			_, err := lrd.SolveModel(m, lrd.SolverConfig{})
			return err
		}); err != nil {
			return err
		}
	}

	// Journal: fsync'd appends of sweep-cell-sized records.
	appends := 200
	if j.smoke {
		appends = 20
	}
	path := filepath.Join(j.tmp, "probe.journal")
	js, err := lrd.OpenJournalStore(path, lrd.JournalStoreOptions{})
	if err != nil {
		return err
	}
	record := cell{Buffer: 0.1, Cutoff: 10, Loss: 0.0123456789, Lower: 0.011, Upper: 0.0131, Converged: true}
	var appendS []float64
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		if err := js.Store(fmt.Sprintf("bufcut|u=0.8|b=%d|tc=10", i), record); err != nil {
			js.Close()
			return err
		}
		appendS = append(appendS, time.Since(t0).Seconds())
	}
	if err := js.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	j.res.Attempted += appends
	j.layer("journal.append_us.p50", quantile(appendS, 0.5)*1e6)
	j.layer("journal.append_us.p95", quantile(appendS, 0.95)*1e6)
	j.layer("journal.bytes_per_record", float64(fi.Size())/float64(appends))

	// Serving: a real lrdserve process.
	return serveProbe(j)
}
