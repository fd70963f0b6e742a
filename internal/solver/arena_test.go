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
