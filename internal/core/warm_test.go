package core

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"lrd/internal/obs"
)

// raceEnabled reports a -race build, in which sync.Pool drops a random
// quarter of the values put back (see race_test.go).
var raceEnabled bool

// TestBatchSweepArenaMetrics: every solve of a sweep borrows one scratch
// set from the solver's process-wide pool and counts it as a reuse or a
// fresh allocation. GC empties the pool and earlier tests leave scratch in
// it, so exact counts are not fixed; but with GC off and a single P (a set
// put back is then always the next one borrowed), a serial sweep allocates
// at most once.
func TestBatchSweepArenaMetrics(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tm := quickModel(t)
	reg := obs.NewRegistry()
	cfg := fastCfg()
	cfg.Recorder = reg
	sc := Sweep(cfg)
	sc.Workers = 1
	_, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85,
		[]float64{0.05, 0.1, 0.2}, []float64{0.5, math.Inf(1)}, sc)
	if err != nil {
		t.Fatal(err)
	}
	solves := reg.CounterValue(obs.MetricSolverSolves)
	reuse := reg.CounterValue(obs.MetricSolverArenaReuse)
	alloc := reg.CounterValue(obs.MetricSolverArenaAlloc)
	if solves != 6 {
		t.Fatalf("solves = %v, want 6", solves)
	}
	if reuse+alloc != solves {
		t.Fatalf("arena reuses %v + allocs %v != solves %v", reuse, alloc, solves)
	}
	if !raceEnabled && reuse < solves-1 {
		t.Fatalf("arena reuses = %v, want >= %v (serial sweep, GC off)", reuse, solves-1)
	}
}

// TestWarmSweepDeterministic: warm-chained sweeps are reproducible — two
// runs over the same grid, including a parallel one, produce identical
// points — and the warm metrics record chain activity.
func TestWarmSweepDeterministic(t *testing.T) {
	tm := quickModel(t)
	buffers := []float64{0.2, 0.05, 0.1} // unsorted: chains must order them
	cutoffs := []float64{0.5, math.Inf(1)}
	run := func(workers int) []Point {
		reg := obs.NewRegistry()
		cfg := fastCfg()
		cfg.Recorder = reg
		wcfg := Sweep(cfg)
		wcfg.WarmStarts = true
		wcfg.Workers = workers
		pts, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.CounterValue(obs.MetricCoreWarmChains); got != float64(len(cutoffs)) {
			t.Fatalf("warm chains = %v, want %d", got, len(cutoffs))
		}
		if got := reg.CounterValue(obs.MetricSolverWarmSolves); got == 0 {
			t.Fatal("no warm solves recorded in a warm sweep")
		}
		return pts
	}
	a, b, c := run(1), run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two serial warm sweeps differ:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("parallel warm sweep differs from serial:\nserial   %+v\nparallel %+v", a, c)
	}
	// Warm bounds are valid: every point still brackets its own loss.
	for i, p := range a {
		if !(p.Lower <= p.Loss && p.Loss <= p.Upper) {
			t.Fatalf("point %d: invalid bracket [%g, %g] around %g", i, p.Lower, p.Upper, p.Loss)
		}
	}
}

// TestWarmSweepResumeKeepsCommittedResults is the "a warm start must never
// change committed results" contract: cells journaled by an interrupted
// warm sweep replay untouched on resume, the chain restarts cold after each
// replayed cell (chain-break accounting), and the full resumed table equals
// the table of rows actually journaled plus freshly chained remainders —
// i.e. resume never rewrites a committed point.
func TestWarmSweepResumeKeepsCommittedResults(t *testing.T) {
	tm := quickModel(t)
	buffers := []float64{0.05, 0.1, 0.2}
	cutoffs := []float64{0.5, math.Inf(1)}
	util := 0.85

	path := filepath.Join(t.TempDir(), "warm.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel after two journal appends: mid-chain, so the interrupted run
	// leaves some cells committed and others not.
	interrupting := &cancelAfterStores{CellStore: store, cancel: cancel, limit: 2}
	_, _ = LossVsBufferAndCutoff(ctx, tm, util, buffers, cutoffs,
		SweepConfig{Solver: fastCfg(), Store: interrupting, Prefix: "t|", WarmStarts: true, Workers: 1})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	rreg := obs.NewRegistry()
	rstore, err := OpenJournalStore(path, JournalStoreOptions{Resume: true, Recorder: rreg})
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	committed := rstore.Completed()
	if committed == 0 {
		t.Fatal("interrupted warm run journaled no cells")
	}
	// Snapshot the committed points before resuming.
	before := make(map[string]Point)
	nc := len(cutoffs)
	for i := 0; i < len(buffers)*nc; i++ {
		key := "t|warm=1|bufcut|u=" + fkey(util) + "|b=" + fkey(buffers[i/nc]) + "|tc=" + fkey(cutoffs[i%nc])
		if raw, ok := rstore.Lookup(key); ok {
			var p Point
			if err := p.UnmarshalJSON(raw); err != nil {
				t.Fatalf("journaled cell %q: %v", key, err)
			}
			before[key] = p
		}
	}
	if len(before) != committed {
		t.Fatalf("found %d journaled cells under the warm prefix, store reports %d", len(before), committed)
	}

	rcfg := fastCfg()
	rcfg.Recorder = rreg
	resumed, err := LossVsBufferAndCutoff(context.Background(), tm, util, buffers, cutoffs,
		SweepConfig{Solver: rcfg, Store: rstore, Prefix: "t|", WarmStarts: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(buffers)*nc {
		t.Fatalf("resumed warm sweep returned %d points, want %d", len(resumed), len(buffers)*nc)
	}
	if got := rreg.CounterValue(obs.MetricCoreCellsResumed); got != float64(committed) {
		t.Fatalf("cells resumed = %v, want %d", got, committed)
	}
	// Every committed point must appear in the resumed table byte-for-byte.
	for i, p := range resumed {
		key := "t|warm=1|bufcut|u=" + fkey(util) + "|b=" + fkey(buffers[i/nc]) + "|tc=" + fkey(cutoffs[i%nc])
		if want, ok := before[key]; ok && p != want {
			t.Fatalf("resume rewrote committed cell %q:\nbefore %+v\nafter  %+v", key, want, p)
		}
	}
}

// TestWarmSweepJournalNamespaced: a warm sweep and a cold sweep sharing
// one journal never replay each other's cells.
func TestWarmSweepJournalNamespaced(t *testing.T) {
	tm := quickModel(t)
	buffers := []float64{0.05, 0.1}
	cutoffs := []float64{math.Inf(1)}

	path := filepath.Join(t.TempDir(), "shared.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cold := SweepConfig{Solver: fastCfg(), Store: store, Prefix: "t|"}
	if _, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, cold); err != nil {
		t.Fatal(err)
	}
	afterCold := store.Completed()

	reg := obs.NewRegistry()
	wcfg := fastCfg()
	wcfg.Recorder = reg
	warm := SweepConfig{Solver: wcfg, Store: store, Prefix: "t|", WarmStarts: true}
	if _, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, warm); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(obs.MetricCoreCellsResumed); got != 0 {
		t.Fatalf("warm sweep replayed %v cold cells; namespaces leaked", got)
	}
	if store.Completed() != afterCold+len(buffers)*len(cutoffs) {
		t.Fatalf("journal holds %d cells after warm run, want %d cold + %d warm",
			store.Completed(), afterCold, len(buffers)*len(cutoffs))
	}
}
