package fft

// Pair convolves two real sequences circularly, each with its own fixed
// real kernel, at one transform size n (a power of two): one forward
// transform of the packed inputs x1 + i·x2, a product with the kernels'
// cached spectra, and one inverse transform whose real part is x1 ⊛ w1 and
// whose imaginary part is x2 ⊛ w2. SetKernels transforms the kernels once;
// each Convolve then costs two n-point transforms and allocates nothing.
//
// Neither transform permutes. The forward one (difPasses) leaves the
// spectrum in bit-reversed order, the product is taken in that order, and
// the inverse (ditPasses) takes it back to natural order. In bit-reversed
// order, positions 0 and 1 hold bins 0 and n/2, each its own mirror; for
// b = 2, 4, …, n/2, position p ∈ [b, 3b/2) holds bin k = rev(p), and its
// mirror bin n − k sits at position 3b − 1 − p.
//
// A Pair is owned by one goroutine at a time. The zero value is ready for
// SetKernels, and its buffers grow on demand and are reused afterwards.
type Pair struct {
	n    int
	plan *plan
	// k1 and k2 are the kernels' half-spectra, bins 0..n/2, divided by n
	// so the inverse transform needs no normalization. Index 0 holds bin
	// 0, index n/2 bin n/2, and index p − b/2 the bin at position
	// p ∈ [b, 3b/2) of the bit-reversed order. The other half follows by
	// Hermitian symmetry.
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
	p.plan = planFor(n)
	p.z = grown(p.z, n)
	z := p.z
	pack(z, w1, w2)
	difPasses(z, p.plan.fwd)
	k1, k2 := grown(p.k1, n/2+1), grown(p.k2, n/2+1)
	p.k1, p.k2 = k1, k2
	inv := 1 / float64(n)
	set := func(i int, zk, zkr complex128) {
		a1, a2 := split(zk, zkr)
		k1[i] = complex(real(a1)*inv, imag(a1)*inv)
		k2[i] = complex(real(a2)*inv, imag(a2)*inv)
	}
	set(0, z[0], z[0])
	if n >= 2 {
		set(n/2, z[1], z[1])
	}
	for b := 2; b < n; b *= 2 {
		h := b / 2
		for i := 0; i < h; i++ {
			set(h+i, z[b+i], z[2*b-1-i])
		}
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
	difPasses(z, p.plan.fwd)
	k1, k2 := p.k1[:n/2+1], p.k2[:n/2+1]
	mulMirrored(z[0:1], z[0:1], k1[0:1], k2[0:1])
	if n >= 2 {
		mulMirrored(z[1:2], z[1:2], k1[n/2:], k2[n/2:])
	}
	for b := 2; b < n; b *= 2 {
		h := b / 2
		mulMirrored(z[b:b+h], z[b+h:2*b], k1[h:b], k2[h:b])
	}
	ditPasses(z, p.plan.inv)
	return z
}

// mulMirrored multiplies one run of a bit-reversed packed spectrum x1 + i·x2
// by the kernels' spectra, in place: lo[i] holds some bin k,
// hi[len(lo)−1−i] its mirror n−k, and c1[i], c2[i] the kernels' bin k. The
// products C1 = X1·W1 and C2 = X2·W2 are spectra of real sequences, so
// bin n−k holds their conjugates, and the product spectrum packs them as
// C1 + i·C2. A self-mirrored bin (0 or n/2) passes the same one-element
// slice as lo and hi; its bin-k value, written last, is the one kept.
func mulMirrored(lo, hi, c1, c2 []complex128) {
	hi, c1, c2 = hi[:len(lo)], c1[:len(lo)], c2[:len(lo)]
	for i := range lo {
		j := len(lo) - 1 - i
		a1, a2 := split(lo[i], hi[j])
		p1, p2 := a1*c1[i], a2*c2[i]
		hi[j] = complex(real(p1)+imag(p2), real(p2)-imag(p1))
		lo[i] = complex(real(p1)-imag(p2), imag(p1)+real(p2))
	}
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
