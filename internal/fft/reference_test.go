package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// radix2Ref is the one-stage-per-pass radix-2 kernel radix2 replaced, kept
// verbatim as the reference its output must match bit for bit.
func radix2Ref(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p := planFor(n)
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * stage[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// convolveRealRef is ConvolveReal's FFT-path arithmetic as it stood beside
// radix2Ref — its own packing, spectrum split, product and inverse — with
// the direct path below the crossover, so ConvolveReal can be held to it
// bit for bit.
func convolveRealRef(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	if directConvolutionSizes(len(a), len(b)) {
		out := make([]float64, outLen)
		for i, av := range a {
			if av == 0 {
				continue
			}
			for j, bv := range b {
				out[i+j] += av * bv
			}
		}
		return out
	}
	m := 1
	for m < outLen {
		m <<= 1
	}
	z := make([]complex128, m)
	for i, v := range a {
		z[i] = complex(v, 0)
	}
	for i, v := range b {
		z[i] += complex(0, v)
	}
	radix2Ref(z, false)
	prod := make([]complex128, m)
	for k := 0; k <= m/2; k++ {
		kr := (m - k) % m
		zk, zkr := z[k], z[kr]
		ak := (zk + complex(real(zkr), -imag(zkr))) * 0.5
		bk := (zk - complex(real(zkr), -imag(zkr))) * complex(0, -0.5)
		p := ak * bk
		prod[k] = p
		if kr != k {
			prod[kr] = complex(real(p), -imag(p))
		}
	}
	radix2Ref(prod, true)
	out := make([]float64, outLen)
	inv := 1 / float64(m)
	for i := range out {
		out[i] = real(prod[i]) * inv
	}
	return out
}

// sameBits reports whether a and b have identical bits, counting any NaN
// equal to any NaN: a NaN's payload and sign follow the operand order the
// compiler picks, not the kernel's arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestRadix2MatchesReference holds the fused kernel to radix2Ref bit for
// bit, forward and inverse, at every power of two from 2 to 2¹⁷ (both
// parities of log₂n, so both first-pass shapes), over inputs that reach
// every rounding and special-value path: random normals, the solver's
// packed convolution operand, signed zeros, and sprinkled ±Inf, NaN and
// subnormals.
func TestRadix2MatchesReference(t *testing.T) {
	families := []struct {
		name string
		fill func(rng *rand.Rand, x []complex128)
	}{
		{"normal", func(rng *rand.Rand, x []complex128) {
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}},
		{"solver-packing", func(rng *rand.Rand, x []complex128) {
			// z = q + i·w: an occupancy pmf of length n/4+1 and an
			// increment pmf of length n/2+1, zero beyond.
			n := len(x)
			for i := range x {
				x[i] = 0
			}
			for i := 0; i <= n/4 && i < n; i++ {
				x[i] = complex(rng.Float64()*math.Pow(10, -8*rng.Float64()), 0)
			}
			for i := 0; i <= n/2 && i < n; i++ {
				x[i] += complex(0, rng.Float64()*math.Pow(10, -8*rng.Float64()))
			}
		}},
		{"signed-zeros", func(rng *rand.Rand, x []complex128) {
			zero := func() float64 {
				if rng.Intn(2) == 0 {
					return math.Copysign(0, -1)
				}
				return 0
			}
			for i := range x {
				x[i] = complex(zero(), zero())
			}
		}},
		{"specials", func(rng *rand.Rand, x []complex128) {
			specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(),
				math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030}
			val := func() float64 {
				if rng.Intn(64) == 0 {
					return specials[rng.Intn(len(specials))]
				}
				return rng.NormFloat64()
			}
			for i := range x {
				x[i] = complex(val(), val())
			}
		}},
	}
	for logN := 1; logN <= 17; logN++ {
		n := 1 << logN
		for fi, fam := range families {
			for _, inverse := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(100*logN + fi)))
				got := make([]complex128, n)
				fam.fill(rng, got)
				want := append([]complex128(nil), got...)
				radix2(got, inverse)
				radix2Ref(want, inverse)
				for i := range want {
					if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
						t.Fatalf("n=%d %s inverse=%v: x[%d] = %v, want %v (bits differ)",
							n, fam.name, inverse, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkRadix2 times the fused kernel and the reference side by side
// in one process, at the transform sizes of the solver's convolutions
// (M = 128 and 1024) and beyond.
func BenchmarkRadix2(b *testing.B) {
	for _, n := range []int{1 << 9, 1 << 12, 1 << 14, 1 << 16} {
		x := randComplex(n, 1)
		buf := make([]complex128, n)
		for _, k := range []struct {
			name   string
			kernel func([]complex128, bool)
		}{{"fused", radix2}, {"ref", radix2Ref}} {
			b.Run(fmt.Sprintf("%s/n%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, x)
					k.kernel(buf, false)
				}
			})
		}
	}
}

// pairRef is the Pair pipeline the permutation-free one replaced, kept
// verbatim as the reference Pair is held to: radix2 forward, the
// natural-order Hermitian split and product, then radix2 inverse.
type pairRef struct {
	n      int
	k1, k2 []complex128
	z      []complex128
}

func (p *pairRef) SetKernels(n int, w1, w2 []float64) {
	p.n = n
	p.z = grown(p.z, n)
	z := p.z
	pack(z, w1, w2)
	radix2(z, false)
	p.k1, p.k2 = grown(p.k1, n/2+1), grown(p.k2, n/2+1)
	inv := 1 / float64(n)
	for k := range p.k1 {
		a1, a2 := split(z[k], z[(n-k)&(n-1)])
		p.k1[k] = complex(real(a1)*inv, imag(a1)*inv)
		p.k2[k] = complex(real(a2)*inv, imag(a2)*inv)
	}
}

func (p *pairRef) Convolve(x1, x2 []float64) []complex128 {
	n := p.n
	z := p.z[:n]
	pack(z, x1, x2)
	radix2(z, false)
	k1, k2 := p.k1[:n/2+1], p.k2[:n/2+1]
	for k := range k1 {
		kr := (n - k) & (n - 1)
		a1, a2 := split(z[k], z[kr])
		c1, c2 := a1*k1[k], a2*k2[k]
		z[kr] = complex(real(c1)+imag(c2), real(c2)-imag(c1))
		z[k] = complex(real(c1)-imag(c2), imag(c1)+real(c2))
	}
	radix2(z, true)
	return z
}

// pairTol is the roundoff bound two FFT convolutions of the same operands
// are held to in every output bin: 4·ε·log₂n times the largest output
// any bin can reach, ‖x‖₁·‖w‖∞ over both halves of the pair.
func pairTol(n int, x1, x2, w1, w2 []float64) float64 {
	norm1 := func(v []float64) (s float64) {
		for _, x := range v {
			s += math.Abs(x)
		}
		return s
	}
	normInf := func(v []float64) (m float64) {
		for _, x := range v {
			m = math.Max(m, math.Abs(x))
		}
		return m
	}
	logN := math.Max(1, math.Log2(float64(n)))
	return 4 * 0x1p-52 * logN * (norm1(x1) + norm1(x2)) * math.Max(normInf(w1), normInf(w2))
}

// TestPairMatchesReference holds Pair to pairRef within pairTol at every
// power of two from 2 to 2¹⁶ (both parities of log₂n, so both last-pass
// shapes of the forward transform), on the solver-packing family of
// TestRadix2MatchesReference (occupancy pmfs of length n/4+1 against
// increment pmfs of length n/2+1) and on pmfs of length n/2+1 whose masses
// span 1 to 1e-30, with one Pair reused across sizes.
func TestPairMatchesReference(t *testing.T) {
	pmf := func(rng *rand.Rand, n int, decades float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * math.Pow(10, -decades*rng.Float64())
		}
		return x
	}
	families := []struct {
		name string
		// xLen and wLen are the input and kernel lengths at transform
		// size n; masses span 10^−decades to 1.
		xLen, wLen func(n int) int
		decades    float64
	}{
		{"solver-packing", func(n int) int { return n/4 + 1 }, func(n int) int { return n/2 + 1 }, 8},
		{"pmf-1e-30", func(n int) int { return n/2 + 1 }, func(n int) int { return n/2 + 1 }, 30},
	}
	var got Pair
	var ref pairRef
	for logN := 1; logN <= 16; logN++ {
		n := 1 << logN
		for fi, fam := range families {
			rng := rand.New(rand.NewSource(int64(100*logN + fi)))
			xl, wl := min(fam.xLen(n), n), min(fam.wLen(n), n)
			w1, w2 := pmf(rng, wl, fam.decades), pmf(rng, wl, fam.decades)
			x1, x2 := pmf(rng, xl, fam.decades), pmf(rng, xl, fam.decades)
			got.SetKernels(n, w1, w2)
			ref.SetKernels(n, w1, w2)
			want := append([]complex128(nil), ref.Convolve(x1, x2)...)
			out := got.Convolve(x1, x2)
			tol := pairTol(n, x1, x2, w1, w2)
			for k := range want {
				if math.Abs(real(out[k])-real(want[k])) > tol || math.Abs(imag(out[k])-imag(want[k])) > tol {
					t.Fatalf("n=%d %s bin %d: %v, reference %v (tolerance %g)", n, fam.name, k, out[k], want[k], tol)
				}
			}
		}
	}
}

// BenchmarkPair times Pair.Convolve and pairRef side by side in one
// process, at the transform sizes of the solver's steps at M = 256, 1024
// and 4096.
func BenchmarkPair(b *testing.B) {
	type convolver interface {
		SetKernels(n int, w1, w2 []float64)
		Convolve(x1, x2 []float64) []complex128
	}
	for _, n := range []int{1 << 9, 1 << 11, 1 << 13} {
		rng := rand.New(rand.NewSource(1))
		vec := func(l int) []float64 {
			x := make([]float64, l)
			for i := range x {
				x[i] = rng.Float64()
			}
			return x
		}
		w1, w2, x1, x2 := vec(n), vec(n), vec(n/2+1), vec(n/2+1)
		for _, k := range []struct {
			name string
			p    convolver
		}{{"pair", &Pair{}}, {"ref", &pairRef{}}} {
			k.p.SetKernels(n, w1, w2)
			b.Run(fmt.Sprintf("%s/n%d", k.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.p.Convolve(x1, x2)
				}
			})
		}
	}
}
