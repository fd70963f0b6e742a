package fft

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvolveRealIntoBitIdentical drives ConvolveReal and ConvolveRealInto
// across both the direct and FFT paths, reusing one Scratch between calls
// of different sizes, and requires bitwise equality of every output
// element with convolveRealRef, the convolution arithmetic on the
// one-stage-per-pass reference kernel. The solver's pooled scratch leans
// on the reuse half of this guarantee: a result never depends on which
// Scratch its solve borrowed.
func TestConvolveRealIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	sizes := [][2]int{
		{1, 1}, {3, 5}, {17, 9}, {64, 129}, // direct path (n*m <= 4096)
		{65, 129}, {129, 257}, {513, 1025}, {1025, 2049}, // FFT path
		{33, 65}, {2049, 4097}, // shrink then grow: exercises buffer reuse
	}
	for _, sz := range sizes {
		a := make([]float64, sz[0])
		b := make([]float64, sz[1])
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := convolveRealRef(a, b)
		for _, path := range []struct {
			name string
			got  []float64
		}{
			{"ConvolveReal", ConvolveReal(a, b)},
			{"ConvolveRealInto", ConvolveRealInto(a, b, &s)},
		} {
			if len(path.got) != len(want) {
				t.Fatalf("%s size %v: len %d, want %d", path.name, sz, len(path.got), len(want))
			}
			for i := range want {
				if math.Float64bits(path.got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s size %v: out[%d] = %x, want %x (not bit-identical)",
						path.name, sz, i, math.Float64bits(path.got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestConvolveRealIntoNilScratch checks the nil-Scratch fallback and empty
// inputs.
func TestConvolveRealIntoNilScratch(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4, 5}
	want := ConvolveReal(a, b)
	got := ConvolveRealInto(a, b, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nil scratch: got %v, want %v", got, want)
		}
	}
	if out := ConvolveRealInto(nil, b, &Scratch{}); out != nil {
		t.Fatalf("empty input: got %v, want nil", out)
	}
}

// TestConvolveRealIntoSteadyStateAllocs verifies that after warm-up the
// scratch path allocates nothing per call.
func TestConvolveRealIntoSteadyStateAllocs(t *testing.T) {
	a := make([]float64, 257)
	b := make([]float64, 513)
	for i := range a {
		a[i] = float64(i%7) * 0.1
	}
	for i := range b {
		b[i] = float64(i%5) * 0.2
	}
	var s Scratch
	ConvolveRealInto(a, b, &s) // warm up buffers
	allocs := testing.AllocsPerRun(10, func() {
		ConvolveRealInto(a, b, &s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}
