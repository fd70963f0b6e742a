package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lrd/internal/faultinject"
	"lrd/internal/journal"
	"lrd/internal/obs"
)

func TestPointJSONRoundTripsNonFinite(t *testing.T) {
	pts := []Point{
		{NormalizedBuffer: 0.05, Cutoff: math.Inf(1), Loss: 1e-7, Lower: 9e-8, Upper: 2e-7, Converged: true},
		{Cutoff: 0.5, Hurst: 0.85, Scale: 1.5, Streams: 4, Degraded: "iterations"},
		{Loss: math.NaN(), Lower: math.Inf(-1)},
	}
	for _, want := range pts {
		raw, err := want.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %+v: %v", want, err)
		}
		var got Point
		if err := got.UnmarshalJSON(raw); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		// NaN breaks DeepEqual by design; compare it separately.
		if math.IsNaN(want.Loss) {
			if !math.IsNaN(got.Loss) {
				t.Fatalf("NaN loss did not round-trip: %s", raw)
			}
			want.Loss, got.Loss = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v (json %s)", got, want, raw)
		}
	}
	sp := ShufflePoint{NormalizedBuffer: 0.1, BlockLen: math.Inf(1), Loss: 0.02}
	raw, err := sp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got ShufflePoint
	if err := got.UnmarshalJSON(raw); err != nil {
		t.Fatal(err)
	}
	if got != sp {
		t.Fatalf("shuffle point round trip: got %+v, want %+v", got, sp)
	}
}

// cancelAfterCells is a Recorder that cancels a context once n sweep cells
// have completed — the test's stand-in for a crash mid-sweep. By the time
// MetricCoreCellsCompleted fires the cell has already been journaled, so
// the "crash" always lands between durable checkpoints.
type cancelAfterCells struct {
	obs.Recorder
	cancel context.CancelFunc
	limit  int64
	n      atomic.Int64
}

func (c *cancelAfterCells) Add(name string, delta float64) {
	c.Recorder.Add(name, delta)
	if name == obs.MetricCoreCellsCompleted && c.n.Add(int64(delta)) >= c.limit {
		c.cancel()
	}
}

// TestSweepResumeBitIdentical is the crash-recovery contract: a sweep
// killed mid-run and resumed from its journal must produce results
// identical to an uninterrupted run.
func TestSweepResumeBitIdentical(t *testing.T) {
	tm := quickModel(t)
	buffers := []float64{0.05, 0.2}
	cutoffs := []float64{0.5, math.Inf(1)}

	clean, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	icfg := fastCfg()
	icfg.Recorder = &cancelAfterCells{Recorder: reg, cancel: cancel, limit: 1}
	_, _ = LossVsBufferAndCutoff(ctx, tm, 0.85, buffers, cutoffs, SweepConfig{Solver: icfg, Store: store, Prefix: "t|"})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	rreg := obs.NewRegistry()
	rstore, err := OpenJournalStore(path, JournalStoreOptions{Resume: true, Recorder: rreg})
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	if rstore.Completed() == 0 {
		t.Fatal("interrupted run journaled no cells")
	}
	rcfg := fastCfg()
	rcfg.Recorder = rreg
	resumed, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, SweepConfig{Solver: rcfg, Store: rstore, Prefix: "t|"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Fatalf("resumed sweep differs from uninterrupted run:\nresumed %+v\nclean   %+v", resumed, clean)
	}
	if got := rreg.CounterValue(obs.MetricCoreCellsResumed); got < 1 {
		t.Fatalf("cells resumed = %v, want >= 1", got)
	}
}

// TestResumeSkipsCorruptTrailingLine: a journal whose last line was
// truncated by a crash mid-append must warn, recompute that cell, and
// still converge to the uninterrupted result.
func TestResumeSkipsCorruptTrailingLine(t *testing.T) {
	tm := quickModel(t)
	buffers := []float64{0.05, 0.2}
	cutoffs := []float64{0.5, math.Inf(1)}

	clean, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, SweepConfig{Solver: fastCfg(), Store: store, Prefix: "t|"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail off the last record, as a crash mid-append would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-12], 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	reg := obs.NewRegistry()
	rstore, err := OpenJournalStore(path, JournalStoreOptions{Resume: true, Recorder: reg, Warn: &warn})
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	if got := reg.CounterValue(obs.MetricCoreJournalCorrupt); got != 1 {
		t.Fatalf("corrupt lines = %v, want 1", got)
	}
	if !bytes.Contains(warn.Bytes(), []byte("corrupt")) {
		t.Fatalf("no corruption warning emitted; warn output: %q", warn.String())
	}
	if got := rstore.Completed(); got != len(clean)-1 {
		t.Fatalf("journal recovered %d cells, want %d", got, len(clean)-1)
	}
	rcfg := fastCfg()
	rcfg.Recorder = reg
	resumed, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, SweepConfig{Solver: rcfg, Store: rstore, Prefix: "t|"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Fatalf("resume after corruption differs from clean run")
	}
	if got := reg.CounterValue(obs.MetricCoreCellsResumed); got != float64(len(clean)-1) {
		t.Fatalf("cells resumed = %v, want %d", got, len(clean)-1)
	}
}

// TestRetryRecoversInjectedNumericFault: a cell whose first solve trips
// the numeric watchdog (via fault injection) must succeed on retry, with
// the attempt counted and the failure journaled.
func TestRetryRecoversInjectedNumericFault(t *testing.T) {
	defer faultinject.Reset()
	tm := quickModel(t)
	var fired atomic.Bool
	faultinject.Arm(faultinject.SolverLossBounds, func(pair []float64) {
		if fired.CompareAndSwap(false, true) {
			pair[0], pair[1] = 0.9, 0.1 // lower > upper: bound-order violation
		}
	})

	path := filepath.Join(t.TempDir(), "sweep.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := fastCfg()
	cfg.Recorder = reg
	pts, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, []float64{0.1}, []float64{0.5},
		SweepConfig{
			Solver: cfg,
			Store:  store,
			Retry:  RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond},
			Prefix: "t|",
		})
	if err != nil {
		t.Fatalf("sweep failed despite retry budget: %v", err)
	}
	if len(pts) != 1 || pts[0].Degraded != "" {
		t.Fatalf("want one healthy point, got %+v", pts)
	}
	if got := reg.CounterValue(obs.MetricCoreCellsRetried); got != 1 {
		t.Fatalf("cells retried = %v, want 1", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := journal.Load(path)
	if err != nil || stats.Corrupt() != 0 {
		t.Fatalf("journal load: err %v, skipped %d", err, stats.Corrupt())
	}
	var fails, oks int
	for _, r := range recs {
		switch r.Status {
		case journal.StatusFail:
			fails++
			if r.Attempt != 1 || r.Error == "" {
				t.Fatalf("fail record: %+v", r)
			}
		case journal.StatusOK:
			oks++
		}
	}
	if fails != 1 || oks != 1 {
		t.Fatalf("journal has %d fail / %d ok records, want 1 / 1", fails, oks)
	}
}

// TestRetryGivesUpAfterBudget: a persistently failing cell exhausts its
// attempts and surfaces the error instead of looping.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	defer faultinject.Reset()
	tm := quickModel(t)
	faultinject.Arm(faultinject.SolverLossBounds, func(pair []float64) {
		pair[0], pair[1] = 0.9, 0.1
	})
	reg := obs.NewRegistry()
	cfg := fastCfg()
	cfg.Recorder = reg
	_, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, []float64{0.1}, []float64{0.5},
		SweepConfig{Solver: cfg, Retry: RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}})
	if err == nil {
		t.Fatal("want error once the retry budget is exhausted")
	}
	if got := reg.CounterValue(obs.MetricCoreCellsRetried); got != 2 {
		t.Fatalf("cells retried = %v, want 2", got)
	}
}

// TestRetryBackoffFullJitter: the k-th retry waits uniformly on
// [0, min(5 s, Backoff·2^(k-1))] — full jitter, never above the schedule.
func TestRetryBackoffFullJitter(t *testing.T) {
	p := RetryPolicy{Backoff: 100 * time.Millisecond}
	for k := 1; k <= 8; k++ {
		limit := p.Backoff << (k - 1)
		if limit > 5*time.Second {
			limit = 5 * time.Second
		}
		for i := 0; i < 1000; i++ {
			if d := p.backoff(k); d < 0 || d > limit {
				t.Fatalf("backoff(%d) = %v, outside [0, %v]", k, d, limit)
			}
		}
	}
}

// cancelAfterStores interrupts a serial sweep after n durable checkpoints.
type cancelAfterStores struct {
	CellStore
	cancel context.CancelFunc
	limit  int32
	n      atomic.Int32
}

func (s *cancelAfterStores) Store(key string, v any) error {
	err := s.CellStore.Store(key, v)
	if s.n.Add(1) >= s.limit {
		s.cancel()
	}
	return err
}

// TestShuffleSurfaceResumeDeterministic: the shuffle surface consumes its
// rng block by block, so an interrupted-then-resumed run (which skips the
// simulations of journaled cells but still performs every shuffle) must
// reproduce the uninterrupted surface exactly.
func TestShuffleSurfaceResumeDeterministic(t *testing.T) {
	tr := quickTrace(t, 3)
	buffers := []float64{0.05, 0.2}
	blocks := []float64{0.5, math.Inf(1)}

	clean, err := ShuffleLossSurface(context.Background(), tr, 0.85, buffers, blocks,
		rand.New(rand.NewSource(42)), SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "shuffle.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := ShuffleLossSurface(ctx, tr, 0.85, buffers, blocks,
		rand.New(rand.NewSource(42)),
		SweepConfig{Store: &cancelAfterStores{CellStore: store, cancel: cancel, limit: 1}, Prefix: "t|"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}
	if len(partial) == 0 || len(partial) == len(clean) {
		t.Fatalf("interrupted run returned %d of %d cells; want a strict subset", len(partial), len(clean))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rstore, err := OpenJournalStore(path, JournalStoreOptions{Resume: true, Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	rcfg := SweepConfig{Store: rstore, Prefix: "t|"}
	rcfg.Solver.Recorder = reg
	resumed, err := ShuffleLossSurface(context.Background(), tr, 0.85, buffers, blocks,
		rand.New(rand.NewSource(42)), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Fatalf("resumed shuffle surface differs from uninterrupted run:\nresumed %+v\nclean   %+v", resumed, clean)
	}
	if got := reg.CounterValue(obs.MetricCoreCellsResumed); got < 1 {
		t.Fatalf("cells resumed = %v, want >= 1", got)
	}
}

// TestExperimentResumeViaRunOptions drives the durability layer the way
// the CLIs do — through RunOptions — and checks an interrupted experiment
// resumes to the uninterrupted table.
func TestExperimentResumeViaRunOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment resume is not a -short test")
	}
	exp, err := ExperimentByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	base := RunOptions{Seed: 7, Quick: true, Solver: fastCfg()}
	clean, err := exp.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fig4.journal")
	store, err := OpenJournalStore(path, JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	iopts := base
	iopts.Store = store
	iopts.Solver.Recorder = &cancelAfterCells{Recorder: reg, cancel: cancel, limit: 2}
	_, _ = exp.Run(ctx, iopts)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	rstore, err := OpenJournalStore(path, JournalStoreOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	if rstore.Completed() == 0 {
		t.Fatal("interrupted experiment journaled no cells")
	}
	ropts := base
	ropts.Store = rstore
	resumed, err := exp.Run(context.Background(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Fatalf("resumed experiment table differs from uninterrupted run")
	}
}
