// Package fgn generates exact fractional Gaussian noise (FGN) — the
// stationary increment process of fractional Brownian motion — which is the
// canonical exactly self-similar process with long-range dependence. The
// library uses it to synthesize stand-ins for the paper's proprietary MTV
// and Bellcore traces with a controlled Hurst parameter (see package
// traces and DESIGN.md §4).
//
// Two generators are provided: the Davies–Harte circulant-embedding method
// (exact in distribution, O(n log n), the default) and the Hosking
// recursion (exact, O(n²), used as an independent cross-check in tests).
package fgn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lrd/internal/fft"
)

// Autocovariance returns the FGN autocovariance at integer lag k for Hurst
// parameter h and unit variance:
//
//	γ(k) = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})
//
// γ(0) = 1. For H > ½ the sequence decays like k^{2H−2}, i.e. hyperbolically
// — the defining signature of long-range dependence.
func Autocovariance(h float64, k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	fk := float64(k)
	e := 2 * h
	return 0.5 * (math.Pow(fk+1, e) - 2*math.Pow(fk, e) + math.Pow(fk-1, e))
}

func validate(h float64, n int) error {
	if !(h > 0 && h < 1) {
		return fmt.Errorf("fgn: Hurst parameter %v outside (0, 1)", h)
	}
	if n <= 0 {
		return errors.New("fgn: need a positive sample count")
	}
	return nil
}

// DaviesHarte generates n samples of zero-mean unit-variance FGN with Hurst
// parameter h using circulant embedding. The method embeds the n×n Toeplitz
// covariance into a 2m-circulant whose eigenvalues (the FFT of the first
// row) are provably non-negative for FGN, takes their square roots as the
// spectral amplitudes, and synthesizes a Gaussian field with exactly the
// target covariance.
func DaviesHarte(h float64, n int, rng *rand.Rand) ([]float64, error) {
	if err := validate(h, n); err != nil {
		return nil, err
	}
	if n == 1 {
		return []float64{rng.NormFloat64()}, nil
	}
	// Embedding size: the first power of two >= 2(n-1) keeps the radix-2
	// kernel fast; m is half the circulant size.
	m := 1
	for m < n-1 {
		m <<= 1
	}
	size := 2 * m
	// First row of the circulant: γ(0..m), then mirrored γ(m−1..1).
	row := make([]complex128, size)
	for k := 0; k <= m; k++ {
		row[k] = complex(Autocovariance(h, k), 0)
	}
	for k := 1; k < m; k++ {
		row[size-k] = row[k]
	}
	eig := fft.Forward(row)
	// Spectral amplitudes; clamp the tiny negative eigenvalues roundoff can
	// produce (theory guarantees non-negativity for FGN).
	s := make([]float64, size)
	for k := range eig {
		v := real(eig[k])
		if v < 0 {
			if v < -1e-9*float64(size) {
				return nil, fmt.Errorf("fgn: circulant eigenvalue %v unexpectedly negative", v)
			}
			v = 0
		}
		s[k] = math.Sqrt(v)
	}
	// Build the randomized spectrum W with Hermitian symmetry so the
	// synthesized field is real with the right covariance.
	w := make([]complex128, size)
	inv := 1 / math.Sqrt(float64(size))
	w[0] = complex(s[0]*rng.NormFloat64()*inv, 0)
	w[m] = complex(s[m]*rng.NormFloat64()*inv, 0)
	half := 1 / math.Sqrt(2*float64(size))
	for k := 1; k < m; k++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		w[k] = complex(s[k]*a*half, s[k]*b*half)
		w[size-k] = complex(real(w[k]), -imag(w[k]))
	}
	field := fft.Forward(w)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(field[i])
	}
	return out, nil
}

// Hosking generates n samples of zero-mean unit-variance FGN with Hurst
// parameter h by the exact O(n²) Durbin–Levinson recursion. It serves as
// the reference implementation against which DaviesHarte is tested, and is
// practical up to a few tens of thousands of samples.
func Hosking(h float64, n int, rng *rand.Rand) ([]float64, error) {
	if err := validate(h, n); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	phi := make([]float64, n)
	prev := make([]float64, n)
	// The recursion reads γ(k) O(n²) times; tabulate it once.
	gamma := make([]float64, n)
	for k := range gamma {
		gamma[k] = Autocovariance(h, k)
	}
	v := 1.0 // prediction error variance
	out[0] = rng.NormFloat64()
	for t := 1; t < n; t++ {
		// Durbin–Levinson update of the AR coefficients for lag t.
		acc := gamma[t]
		for j := 1; j < t; j++ {
			acc -= prev[j-1] * gamma[t-j]
		}
		kappa := acc / v
		phi[t-1] = kappa
		for j := 0; j < t-1; j++ {
			phi[j] = prev[j] - kappa*prev[t-2-j]
		}
		v *= 1 - kappa*kappa
		// Conditional mean of X_t given the past.
		var mean float64
		for j := 0; j < t; j++ {
			mean += phi[j] * out[t-1-j]
		}
		out[t] = mean + math.Sqrt(v)*rng.NormFloat64()
		copy(prev[:t], phi[:t])
	}
	return out, nil
}

// AggregateVariance returns the variance of the m-aggregated series
// implied by exact self-similarity: Var[(X_1+…+X_m)/m] = m^{2H−2}. Tests
// compare sample aggregate variances against this.
func AggregateVariance(h float64, m int) float64 {
	return math.Pow(float64(m), 2*h-2)
}
