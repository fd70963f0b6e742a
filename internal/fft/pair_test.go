package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lrd/internal/numerics"
)

// TestConvolveRealBitIdentical drives ConvolveReal across both the direct
// and FFT paths and requires bitwise equality of every output element with
// convolveRealRef, the convolution arithmetic on the one-stage-per-pass
// reference kernel: the Hermitian split ConvolveReal shares with Pair
// computes what the reference's split computed.
func TestConvolveRealBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := [][2]int{
		{1, 1}, {3, 5}, {17, 9}, {64, 129}, // direct path (n*m <= 4096)
		{65, 129}, {129, 257}, {513, 1025}, {1025, 2049}, // FFT path
		{33, 65}, {2049, 4097},
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
		got := ConvolveReal(a, b)
		if len(got) != len(want) {
			t.Fatalf("size %v: len %d, want %d", sz, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("size %v: out[%d] = %x, want %x (not bit-identical)",
					sz, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// circularNaive is the direct n-point circular convolution of x with w,
// each bin a compensated sum, so its error stays within a few ε of
// ‖x‖₁·‖w‖∞ at any n.
func circularNaive(x, w []float64, n int) []float64 {
	acc := make([]numerics.Accumulator, n)
	for i, xv := range x {
		for l, wv := range w {
			acc[(i+l)%n].Add(xv * wv)
		}
	}
	out := make([]float64, n)
	for k := range out {
		out[k] = acc[k].Sum()
	}
	return out
}

// TestPairMatchesNaive: both halves of a Pair's output are the circular
// convolutions of their own input with their own kernel, at every
// power-of-two size from 1 to 4096, for inputs and kernels of unequal
// lengths, and on a Pair reused across sizes and kernels.
func TestPairMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vec := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * math.Pow(10, -6*rng.Float64())
		}
		return x
	}
	var p Pair
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 16, 4096} {
		w1, w2 := vec(n), vec(n/2+1)
		p.SetKernels(n, w1, w2)
		for rep := 0; rep < 2; rep++ {
			x1, x2 := vec(n/2+1), vec(n)
			got := p.Convolve(x1, x2)
			want1, want2 := circularNaive(x1, w1, n), circularNaive(x2, w2, n)
			for k := 0; k < n; k++ {
				if math.Abs(real(got[k])-want1[k]) > 1e-15*float64(n) ||
					math.Abs(imag(got[k])-want2[k]) > 1e-15*float64(n) {
					t.Fatalf("n=%d rep=%d bin %d: got (%g, %g), want (%g, %g)",
						n, rep, k, real(got[k]), imag(got[k]), want1[k], want2[k])
				}
			}
		}
	}
}

// TestPairSetKernelsRejectsBadSize: a length that is not a power of two,
// or shorter than a kernel, is a programming error.
func TestPairSetKernelsRejectsBadSize(t *testing.T) {
	for _, c := range []struct {
		n      int
		w1, w2 int
	}{{0, 0, 0}, {6, 1, 1}, {8, 9, 1}, {8, 1, 9}} {
		t.Run(fmt.Sprintf("n%d", c.n), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetKernels(%d, len %d, len %d) did not panic", c.n, c.w1, c.w2)
				}
			}()
			var p Pair
			p.SetKernels(c.n, make([]float64, c.w1), make([]float64, c.w2))
		})
	}
}

// TestPairSteadyStateAllocs verifies that once its kernels are set, a
// Pair convolves without allocating.
func TestPairSteadyStateAllocs(t *testing.T) {
	const n = 1024
	w := make([]float64, n)
	x := make([]float64, n/2+1)
	for i := range w {
		w[i] = float64(i%5) * 0.2
	}
	for i := range x {
		x[i] = float64(i%7) * 0.1
	}
	var p Pair
	p.SetKernels(n, w, w)
	allocs := testing.AllocsPerRun(10, func() {
		p.Convolve(x, x)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// FuzzPairConvolve: at a size n ≤ 1024 and on inputs and kernels of any
// lengths up to n decoded from the fuzz bytes, both halves of a Pair's
// output match circularNaive within pairTol. One Pair serves every input,
// so its buffers are reused across sizes and kernels.
func FuzzPairConvolve(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{8, 0, 3, 0, 8, 0, 1, 0, 0x7f, 0, 0x80, 5, 1, 60, 0x40, 1})
	f.Add(uint8(10), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	var p Pair
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 1 << (logN % 11)
		// Four little-endian uint16 lengths, each taken mod n+1, then the
		// values two bytes each: a signed 8-bit mantissa scaled by 2^−e,
		// e < 64. Values past the end of data are zero.
		var lens [4]int
		for i := range lens {
			if len(data) >= 2 {
				lens[i] = int(binary.LittleEndian.Uint16(data)) % (n + 1)
				data = data[2:]
			}
		}
		vec := func(l int) []float64 {
			v := make([]float64, l)
			for i := range v {
				if len(data) < 2 {
					break
				}
				v[i] = float64(int8(data[0])) / 128 * math.Ldexp(1, -int(data[1]%64))
				data = data[2:]
			}
			return v
		}
		x1, x2, w1, w2 := vec(lens[0]), vec(lens[1]), vec(lens[2]), vec(lens[3])
		p.SetKernels(n, w1, w2)
		out := p.Convolve(x1, x2)
		want1, want2 := circularNaive(x1, w1, n), circularNaive(x2, w2, n)
		tol := pairTol(n, x1, x2, w1, w2)
		for k := 0; k < n; k++ {
			if math.Abs(real(out[k])-want1[k]) > tol || math.Abs(imag(out[k])-want2[k]) > tol {
				t.Fatalf("n=%d bin %d: (%g, %g), naive (%g, %g) (tolerance %g)",
					n, k, real(out[k]), imag(out[k]), want1[k], want2[k], tol)
			}
		}
	})
}
