package solver

import "testing"

// TestArenaStepAllocations: once its pooled scratch has warmed up, a
// Lindley step allocates nothing.
func TestArenaStepAllocations(t *testing.T) {
	q, ok := randomModel(5)
	if !ok {
		t.Fatal("randomModel(5) invalid")
	}
	it, err := NewModelIterator(q.Model(), Config{InitialBins: 512, MaxBins: 512, MaxIterations: 10000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm up scratch buffers
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Step allocates %v objects/op, want 0", allocs)
	}
}

// TestStepAfterRefineBorrowsFreeList: the first Step after a Refine takes
// both output buffers of the finer rung from the scratch free list, which
// by then holds the coarse rung's recycled tables, instead of allocating
// them.
func TestStepAfterRefineBorrowsFreeList(t *testing.T) {
	q, ok := randomModel(5)
	if !ok {
		t.Fatal("randomModel(5) invalid")
	}
	it, err := NewModelIterator(q.Model(), Config{InitialBins: 128, MaxBins: 256, MaxIterations: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Step(); err != nil {
		t.Fatal(err)
	}
	if !it.Refine() {
		t.Fatal("Refine refused 128 → 256")
	}
	// A backing array is identified by the address of its last element.
	end := func(b []float64) *float64 { return &b[:cap(b)][cap(b)-1] }
	n := it.bins + 1
	free := map[*float64]bool{}
	for _, b := range it.scratch.free {
		if cap(b) >= n {
			free[end(b)] = true
		}
	}
	if len(free) < 2 {
		t.Fatalf("free list holds %d buffers of capacity ≥ %d after Refine, want ≥ 2", len(free), n)
	}
	if err := it.Step(); err != nil {
		t.Fatal(err)
	}
	// The double-buffer swap leaves this step's outputs in ql and qh.
	if !free[end(it.ql)] || !free[end(it.qh)] {
		t.Fatal("the first Step after Refine allocated its output buffers instead of borrowing them from the free list")
	}
}
