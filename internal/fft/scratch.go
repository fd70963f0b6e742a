package fft

import "lrd/internal/obs"

// Scratch holds the working buffers of one ConvolveRealInto call chain so a
// hot loop (the solver performs two convolutions per Lindley step) can reuse
// them instead of allocating ~3 transform-sized slices per call. A Scratch
// is owned by a single goroutine at a time; the zero value is ready to use
// and grows its buffers on demand, after which steady-state calls allocate
// nothing.
type Scratch struct {
	z    []complex128
	prod []complex128
	out  []float64
}

// grown returns buf resliced to length n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers must fully overwrite or
// zero the slice.
func grownComplex(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

func grownFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ConvolveRealInto is ConvolveReal with caller-owned scratch buffers: the
// returned slice is owned by s and only valid until the next call with the
// same Scratch. A nil Scratch allocates a fresh one. The result never
// depends on what s last held.
func ConvolveRealInto(a, b []float64, s *Scratch) []float64 {
	if s == nil {
		s = new(Scratch)
	}
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	if DirectConvolutionSizes(len(a), len(b)) {
		// Small problems: the direct algorithm is both faster and exact.
		if rec := recorder(); rec != nil {
			rec.Add(obs.MetricFFTConvolveNaive, 1)
		}
		s.out = grownFloat(s.out, outLen)
		clear(s.out)
		return convolveNaive(a, b, s.out)
	}
	if rec := recorder(); rec != nil {
		rec.Add(obs.MetricFFTConvolveViaFFT, 1)
	}
	m := 1
	for m < outLen {
		m <<= 1
	}
	// Pack both real sequences into one complex transform: z = a + i*b. The
	// tail beyond the inputs must be zero, exactly as a fresh allocation
	// would be.
	z := grownComplex(s.z, m)
	s.z = z
	clear(z)
	for i, v := range a {
		z[i] = complex(v, 0)
	}
	for i, v := range b {
		z[i] += complex(0, v)
	}
	radix2(z, false)
	// With Z = A + iB, A[k] = (Z[k] + conj(Z[-k]))/2 and
	// B[k] = (Z[k] - conj(Z[-k]))/(2i); the product spectrum is A.*B.
	// Every index of prod is written below (k covers 0..m/2, kr covers the
	// mirror half), so no clearing is needed.
	prod := grownComplex(s.prod, m)
	s.prod = prod
	for k := 0; k <= m/2; k++ {
		kr := m - k
		if k == 0 {
			kr = 0 // the only index whose mirror wraps
		}
		zk, zkr := z[k], z[kr]
		ak := (zk + complex(real(zkr), -imag(zkr))) * 0.5
		bk := (zk - complex(real(zkr), -imag(zkr))) * complex(0, -0.5)
		p := ak * bk
		prod[k] = p
		if kr != k {
			prod[kr] = complex(real(p), -imag(p))
		}
	}
	radix2(prod, true)
	s.out = grownFloat(s.out, outLen)
	inv := 1 / float64(m)
	for i := range s.out {
		s.out[i] = real(prod[i]) * inv
	}
	return s.out
}
