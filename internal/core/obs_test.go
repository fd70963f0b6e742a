package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"lrd/internal/obs"
	"lrd/internal/solver"
)

// TestSweepTelemetryConcurrent drives a real sweep with a shared Registry
// so the race detector exercises concurrent counter/gauge/histogram
// updates from every parallelMap worker, then checks the bookkeeping adds
// up: planned == completed + (not started), solves == cells solved.
func TestSweepTelemetryConcurrent(t *testing.T) {
	tm := quickModel(t)
	reg := obs.NewRegistry()
	cfg := fastCfg()
	cfg.Recorder = reg
	var mu sync.Mutex
	var points []solver.TracePoint
	cfg.Trace = func(p solver.TracePoint) {
		mu.Lock()
		points = append(points, p)
		mu.Unlock()
	}
	buffers := []float64{0.05, 0.2}
	cutoffs := []float64{0.5, math.Inf(1)}
	pts, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, Sweep(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cells := float64(len(buffers) * len(cutoffs))
	if got := reg.CounterValue(obs.MetricCoreCellsPlanned); got != cells {
		t.Fatalf("cells planned = %v, want %v", got, cells)
	}
	if got := reg.CounterValue(obs.MetricCoreCellsCompleted); got != cells {
		t.Fatalf("cells completed = %v, want %v", got, cells)
	}
	if got := reg.CounterValue(obs.MetricSolverSolves); got != cells {
		t.Fatalf("solves = %v, want %v", got, cells)
	}
	if len(pts) != int(cells) {
		t.Fatalf("points = %d, want %v", len(pts), cells)
	}

	// The interleaved trace stream must separate cleanly by solve id, and
	// each per-solve stream must keep the Prop. II.1 monotone-bounds shape.
	bySolve := map[uint64][]solver.TracePoint{}
	for _, p := range points {
		bySolve[p.Solve] = append(bySolve[p.Solve], p)
	}
	if len(bySolve) != int(cells) {
		t.Fatalf("distinct solve ids = %d, want %v", len(bySolve), cells)
	}
	for id, ps := range bySolve {
		for i := 1; i < len(ps); i++ {
			if ps[i].Lower < ps[i-1].Lower {
				t.Fatalf("solve %d: lower bound decreased", id)
			}
			if ps[i].Upper > ps[i-1].Upper {
				t.Fatalf("solve %d: upper bound increased", id)
			}
		}
		if !ps[len(ps)-1].Final {
			t.Fatalf("solve %d: stream does not end with a final point", id)
		}
	}
}

// TestParallelMapNilRecorder: the instrumentation must be inert (and not
// panic) when no recorder is attached.
func TestParallelMapNilRecorder(t *testing.T) {
	ran := make([]bool, 8)
	err := parallelMap(context.Background(), nil, 0, len(ran), func(i int) error {
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("cell %d not done", i)
		}
	}
}
