package fft

// Pair convolves two real sequences circularly, each with its own fixed
// real kernel, at one transform size n (a power of two): one forward
// transform of the packed inputs x1 + i·x2, a product with the kernels'
// cached spectra, and one inverse transform whose real part is x1 ⊛ w1 and
// whose imaginary part is x2 ⊛ w2. SetKernels transforms the kernels once;
// each Convolve then costs two n-point transforms and allocates nothing.
//
// A Pair is owned by one goroutine at a time. The zero value is ready for
// SetKernels, and its buffers grow on demand and are reused afterwards.
type Pair struct {
	n int
	// k1 and k2 are the kernels' half-spectra, bins 0..n/2, divided by n
	// so the inverse transform needs no normalization. The other half
	// follows by Hermitian symmetry.
	k1, k2 []complex128
	z      []complex128 // transform workspace, length n
}

// SetKernels transforms the real kernels w1 and w2, zero-padded to length
// n, with one packed forward transform split by Hermitian symmetry. n must
// be a power of two no shorter than either kernel.
func (p *Pair) SetKernels(n int, w1, w2 []float64) {
	if n < 1 || n&(n-1) != 0 || len(w1) > n || len(w2) > n {
		panic("fft: Pair.SetKernels needs a power-of-two length no shorter than the kernels")
	}
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

// Convolve returns the n-point circular convolutions of x1 with w1 and of
// x2 with w2, packed as the real and imaginary parts of one slice:
//
//	real(out[k]) = Σ_i x1[i]·w1[(k−i) mod n],  imag(out[k]) = Σ_i x2[i]·w2[(k−i) mod n].
//
// x1 and x2 must be no longer than n. The slice is the Pair's workspace,
// valid until its next call.
func (p *Pair) Convolve(x1, x2 []float64) []complex128 {
	n := p.n
	z := p.z[:n]
	pack(z, x1, x2)
	radix2(z, false)
	k1, k2 := p.k1[:n/2+1], p.k2[:n/2+1]
	for k := range k1 {
		kr := (n - k) & (n - 1)
		a1, a2 := split(z[k], z[kr])
		c1, c2 := a1*k1[k], a2*k2[k]
		// c1 and c2 are spectra of real sequences, so bin n−k holds their
		// conjugates; the product spectrum packs them as c1 + i·c2. At the
		// self-mirrored bins (0 and n/2) the second write wins, where c1
		// and c2 are real.
		z[kr] = complex(real(c1)+imag(c2), real(c2)-imag(c1))
		z[k] = complex(real(c1)-imag(c2), imag(c1)+real(c2))
	}
	radix2(z, true)
	return z
}

// pack fills z with x + i·y, zero beyond both sequences.
func pack(z []complex128, x, y []float64) {
	clear(z)
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	for i, v := range y {
		z[i] = complex(real(z[i]), v)
	}
}

// split recovers bin k of the spectra X and Y of two real sequences packed
// as z = x + i·y, from bins k and n−k of z's spectrum Z:
//
//	X[k] = (Z[k] + conj(Z[n−k]))/2,  Y[k] = (Z[k] − conj(Z[n−k]))/(2i).
func split(zk, zkr complex128) (xk, yk complex128) {
	a, b := real(zk), imag(zk)
	c, d := real(zkr), imag(zkr)
	return complex((a+c)*0.5, (b-d)*0.5), complex((b+d)*0.5, (c-a)*0.5)
}

// grown returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are unspecified.
func grown(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}
