// Package fft implements the fast Fourier transform and FFT-based linear
// convolution on float64 data using only the standard library.
//
// Two transform kernels are provided: an iterative radix-2
// Cooley–Tukey transform for power-of-two lengths and Bluestein's
// chirp-z algorithm for arbitrary lengths. Callers normally use the
// length-agnostic Forward/Inverse entry points, or ConvolveReal for linear
// convolution of real sequences (the operation at the heart of the paper's
// O(M log M) queue-occupancy recursion).
//
// The radix-2 kernel permutes its input into bit-reversed order by
// advancing the reversed index with a carry that runs from the top bit
// down, then fuses the butterfly stages two per pass over memory (halves h
// and 2h over blocks of 4h, the four intermediate values held in locals;
// an odd log₂n runs its first stage alone). Every value still goes
// through the same butterflies, with the same twiddles, in the same order
// as in one pass per stage, so each output has the same bits as the
// unfused kernel's. The one exception is the payload and sign of a NaN,
// which depend on the operand order the compiler picks.
//
// Twiddle factors for the radix-2 kernel are precomputed per transform
// size and cached process-wide (the solver hits the same handful of sizes
// millions of times during a sweep). SetRecorder attaches a telemetry
// recorder counting plan-cache hits/misses, transform sizes, and which
// convolution path (direct vs. FFT) each ConvolveReal call took.
package fft

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"lrd/internal/obs"
)

// recBox wraps the recorder so a nil interface can be stored in
// atomic.Value (which rejects inconsistently-typed or nil values).
type recBox struct{ r obs.Recorder }

var globalRec atomic.Value // recBox

// SetRecorder attaches a telemetry recorder to the package's transform and
// convolution entry points; nil detaches it. Safe for concurrent use with
// running transforms.
func SetRecorder(r obs.Recorder) { globalRec.Store(recBox{r}) }

func recorder() obs.Recorder {
	if b, ok := globalRec.Load().(recBox); ok {
		return b.r
	}
	return nil
}

// directConvolutionCrossover is the work bound (len(a)*len(b)) below which
// the O(n·m) direct convolution beats the FFT path.
const directConvolutionCrossover = 4096

// DirectConvolutionSizes reports whether ConvolveReal would take the direct
// O(n·m) path for inputs of the given lengths — exported so instrumented
// callers (the solver's per-step metrics) can label the path taken without
// duplicating the crossover constant.
func DirectConvolutionSizes(n, m int) bool {
	return n*m <= directConvolutionCrossover
}

// maxCachedPlanSize bounds plan-cache memory: transforms larger than this
// (well beyond the solver's maximum convolution length) build their
// twiddles on the fly instead of being cached.
const maxCachedPlanSize = 1 << 21

// plan holds the per-stage twiddle factors of a radix-2 transform of one
// size, flattened: the stage with half-size h occupies indices
// [h-1, 2h-1). Forward and inverse tables differ only in the sign of the
// exponent.
type plan struct {
	fwd, inv []complex128
}

var planCache sync.Map // int -> *plan

// planFor returns the (possibly cached) twiddle plan for size n.
func planFor(n int) *plan {
	if v, ok := planCache.Load(n); ok {
		if rec := recorder(); rec != nil {
			rec.Add(obs.MetricFFTPlanHits, 1)
		}
		return v.(*plan)
	}
	if rec := recorder(); rec != nil {
		rec.Add(obs.MetricFFTPlanMisses, 1)
	}
	p := buildPlan(n)
	if n <= maxCachedPlanSize {
		if v, loaded := planCache.LoadOrStore(n, p); loaded {
			return v.(*plan)
		}
	}
	return p
}

// buildPlan precomputes the twiddle factors w_size^k = exp(±2πik/size) for
// every stage size 2, 4, …, n, k < size/2.
func buildPlan(n int) *plan {
	p := &plan{
		fwd: make([]complex128, n-1),
		inv: make([]complex128, n-1),
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			s, c := math.Sincos(step * float64(k))
			p.fwd[half-1+k] = complex(c, -s)
			p.inv[half-1+k] = complex(c, s)
		}
	}
	return p
}

// Forward returns the discrete Fourier transform of x. The input is not
// modified. Any length is accepted; power-of-two lengths use the radix-2
// kernel, others use Bluestein's algorithm.
func Forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	transform(out, false)
	return out
}

// Inverse returns the inverse discrete Fourier transform of x, normalized by
// 1/len(x) so that Inverse(Forward(x)) == x up to roundoff.
func Inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	transform(out, true)
	return out
}

// transform computes an in-place DFT (or inverse DFT) of x of any length.
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// radix2 computes an unnormalized in-place DFT for power-of-two lengths
// using the iterative decimation-in-time Cooley–Tukey algorithm, two
// stages per pass over x. The twiddle factors come from the process-wide
// plan cache, so after the first transform of a given size the kernel
// performs no trigonometry at all — the dominant setup cost of the
// per-step solver convolution otherwise.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	if rec := recorder(); rec != nil {
		rec.Observe(obs.MetricFFTTransformSize, float64(n))
	}
	// Bit-reversal permutation: j is i with its log₂n bits reversed, so
	// incrementing i adds one to j from the top bit down.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	p := planFor(n)
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	h := 1
	if bits.TrailingZeros(uint(n))%2 == 1 {
		// Odd log₂n: the first stage runs alone, the rest in pairs.
		w := tw[0]
		for i := 0; i < n; i += 2 {
			q := x[i : i+2 : i+2]
			a, b := q[0], q[1]*w
			q[0], q[1] = a+b, a-b
		}
		h = 2
	} else if n >= 4 {
		// The first pair of stages has one twiddle per quarter block.
		w1, w2a, w2b := tw[0], tw[1], tw[2]
		for i := 0; i < n; i += 4 {
			q := x[i : i+4 : i+4]
			b0 := q[1] * w1
			s0, d0 := q[0]+b0, q[0]-b0
			b2 := q[3] * w1
			s2, d2 := q[2]+b2, q[2]-b2
			c0 := s2 * w2a
			q[0], q[2] = s0+c0, s0-c0
			c1 := d2 * w2b
			q[1], q[3] = d0+c1, d0-c1
		}
		h = 4
	}
	// Each pass runs the stages with halves h and 2h over blocks of 4h. At
	// offset k of a block's quarters x0…x3, the half-h butterflies join
	// (x0, x1) and (x2, x3) with twiddle w1[k], then the half-2h ones join
	// the two sums with w2a[k] = w_{4h}^k and the two differences with
	// w2b[k] = w_{4h}^{h+k}: the operations two one-stage passes perform,
	// on the same values. Slicing every quarter to len(w1) lets the
	// compiler drop the inner loop's bounds checks.
	for ; h < n; h *= 4 {
		w1 := tw[h-1 : 2*h-1]
		w2a := tw[2*h-1 : 3*h-1][:len(w1)]
		w2b := tw[3*h-1 : 4*h-1][:len(w1)]
		for i := 0; i < n; i += 4 * h {
			x0 := x[i : i+h][:len(w1)]
			x1 := x[i+h : i+2*h][:len(w1)]
			x2 := x[i+2*h : i+3*h][:len(w1)]
			x3 := x[i+3*h : i+4*h][:len(w1)]
			for k := range w1 {
				b0 := x1[k] * w1[k]
				s0, d0 := x0[k]+b0, x0[k]-b0
				b2 := x3[k] * w1[k]
				s2, d2 := x2[k]+b2, x2[k]-b2
				c0 := s2 * w2a[k]
				x0[k], x2[k] = s0+c0, s0-c0
				c1 := d2 * w2b[k]
				x1[k], x3[k] = d0+c1, d0-c1
			}
		}
	}
}

// bluestein computes an unnormalized DFT of arbitrary length n by expressing
// it as a linear convolution of length >= 2n-1, which is evaluated with the
// radix-2 kernel.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign * i*pi*k^2/n). k*k can overflow for very
	// large n, so reduce k^2 mod 2n in int64 arithmetic.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		chirp[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	conj := func(z complex128) complex128 { return complex(real(z), -imag(z)) }
	b[0] = conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = conj(chirp[k])
		b[m-k] = b[k]
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// ConvolveReal returns the full linear convolution of the real sequences a
// and b: out[k] = sum_i a[i]*b[k-i], with len(out) = len(a)+len(b)-1.
// The transform length is padded to the next power of two, giving
// O((n+m) log(n+m)) time. Either input being empty yields an empty result.
// The result is ConvolveRealInto's on a fresh Scratch, which the caller
// then owns.
func ConvolveReal(a, b []float64) []float64 {
	var s Scratch
	return ConvolveRealInto(a, b, &s)
}

// convolveNaive is the O(n·m) direct convolution used for small inputs and
// as the reference implementation in tests. It accumulates into out, which
// must be zeroed and of length len(a)+len(b)-1, and returns it.
func convolveNaive(a, b, out []float64) []float64 {
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

// ConvolveRealNaive exposes the direct O(n·m) linear convolution. The solver
// uses it below a crossover size where it beats the FFT, and tests use it as
// the ground truth for ConvolveReal.
func ConvolveRealNaive(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return convolveNaive(a, b, make([]float64, len(a)+len(b)-1))
}

// Periodogram returns the one-sided periodogram I(f_j) of the real series x
// at the Fourier frequencies f_j = j/n for j = 1..floor((n-1)/2):
//
//	I(f_j) = |sum_t x[t] e^{-2πi f_j t}|² / (2π n)
//
// This is the normalization used by Whittle-type long-memory estimators.
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n < 2 {
		return nil
	}
	z := make([]complex128, n)
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	transform(z, false)
	m := (n - 1) / 2
	out := make([]float64, m)
	norm := 1 / (2 * math.Pi * float64(n))
	for j := 1; j <= m; j++ {
		re, im := real(z[j]), imag(z[j])
		out[j-1] = (re*re + im*im) * norm
	}
	return out
}
