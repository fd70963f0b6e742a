package main

import (
	"math"
	"testing"
	"time"

	"lrd"
)

func sp(id int, start, end float64) span { return span{ID: id, Start: start, End: end} }

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := sp(1, 0, 10)
	kids := []span{
		sp(2, 1, 4),
		sp(3, 3, 6),   // overlaps the first: [1, 6] covered once
		sp(4, 8, 12),  // sticks out of the parent: only [8, 10] counts
		sp(5, -2, -1), // entirely outside
		sp(6, 2, 3),   // nested inside the first
	}
	if got := selfTime(parent, kids); math.Abs(got-3) > 1e-12 {
		t.Errorf("self time = %v, want 3 (10 - 5 - 2)", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("childless self time = %v, want 10", got)
	}
}

func TestAssignTellsConcurrentCellsApart(t *testing.T) {
	// Two workers: a long cell (its solve is short and its journal fsync
	// long) overlaps a short cell. The short cell's solve fits in both,
	// but it started right after the short cell did.
	cells := []span{sp(1, 0.0, 10.0), sp(2, 4.0, 6.0)}
	solves := []span{sp(3, 0.001, 3.0), sp(4, 4.001, 5.5)}
	assign(solves, cells, true)
	if solves[0].Parent != 1 || solves[1].Parent != 2 {
		t.Fatalf("parents = %d, %d; want 1, 2", solves[0].Parent, solves[1].Parent)
	}
	// Many-to-one: an answer holds several forward solves.
	answers := []span{sp(1, 0, 5), sp(2, 5, 9)}
	fwd := []span{sp(3, 0.1, 1), sp(4, 1, 4), sp(5, 5.5, 8)}
	assign(fwd, answers, false)
	if fwd[0].Parent != 1 || fwd[1].Parent != 1 || fwd[2].Parent != 2 {
		t.Fatalf("parents = %d, %d, %d; want 1, 1, 2", fwd[0].Parent, fwd[1].Parent, fwd[2].Parent)
	}
	row := residual("answer", "forward solve", answers, fwd)
	if row.ParentS != 9 || math.Abs(row.SelfS-(9-3.9-2.5)) > 1e-12 {
		t.Errorf("residual = %+v, want parent 9 s and self 2.6 s", row)
	}
}

func TestSolveTrackerRebuildsSolveAndStepSpans(t *testing.T) {
	tr := newTracer("w")
	st := newSolveTracker(tr)
	st.hook(lrd.TracePoint{Solve: 7, Iteration: 1, Bins: 128})
	st.hook(lrd.TracePoint{Solve: 7, Iteration: 2, Bins: 128})
	st.hook(lrd.TracePoint{Solve: 7, Iteration: 3, Bins: 256}) // crosses a refinement
	st.hook(lrd.TracePoint{Solve: 7, Iteration: 4, Bins: 256})
	st.hook(lrd.TracePoint{Solve: 7, Iteration: 4, Bins: 256, Final: true, Elapsed: 0.5})
	got := tr.named("solve")
	if len(got) != 1 {
		t.Fatalf("%d solve spans, want 1", len(got))
	}
	s := got[0]
	if d := s.dur(); math.Abs(d-0.5) > 0.01 {
		t.Errorf("solve lasted %v s, want the final point's 0.5 s", d)
	}
	if s.Attrs["timed_steps"] != 2 || s.Attrs["iterations"] != 4 {
		t.Errorf("attrs = %v, want 2 timed steps (the refinement interval excluded) of 4 iterations", s.Attrs)
	}
	var nilTracer *tracer
	if id := nilTracer.add("x", 0, time.Now(), time.Now(), nil); id != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
