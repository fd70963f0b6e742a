package solver

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"lrd/internal/fft"
)

// stepSizes are the resolutions the step is checked at: powers of two and
// not (InitialBins may be any positive int), from the one-bin grid up.
var stepSizes = []int{1, 2, 3, 32, 100, 128, 1000, 1024}

// randomPMF returns a pmf of length n whose raw masses span 1 to 1e-30.
func randomPMF(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	var total float64
	for i := range p {
		p[i] = rng.Float64() * math.Pow(10, -30*rng.Float64())
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// stepIterator returns an iterator at m bins whose occupancy and
// increment pmfs are replaced by the given ones, its step tables rebuilt
// from them.
func stepIterator(t *testing.T, m int, ql, qh, wl, wh []float64) *Iterator {
	t.Helper()
	it, err := newIterator(lossyQueue(t).Model(), Config{InitialBins: m, MaxBins: m}, m)
	if err != nil {
		t.Fatal(err)
	}
	copy(it.ql, ql)
	copy(it.qh, qh)
	copy(it.wl, wl)
	copy(it.wh, wh)
	it.setStepTables()
	return it
}

// naiveStep is Eq. (19) by the direct linear convolution of q with w
// (length 2m+1), folded into m+1 bins: everything at or below 0 into bin 0,
// everything at or above B into bin m.
func naiveStep(q, w []float64, m int) []float64 {
	u := fft.ConvolveRealNaive(q, w)
	out := make([]float64, m+1)
	for k, v := range u {
		switch {
		case k <= m:
			out[0] += v
		case k >= 2*m:
			out[m] += v
		default:
			out[k-m] = v
		}
	}
	return out
}

// exactEnds is the mass one step of q with w moves to or below 0 and to or
// above B, summed exactly and rounded once:
// Σ_i q[i]·Σ_{l ≤ m−i} w[l] and Σ_i q[i]·Σ_{l ≥ 2m−i} w[l].
func exactEnds(q, w []float64, m int) (lo, hi float64) {
	const prec = 2048
	num := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	head := make([]*big.Float, m+1) // head[n] = Σ_{l ≤ n} w[l]
	tail := make([]*big.Float, 2*m+1)
	acc := num(0)
	for l := 0; l <= m; l++ {
		acc.Add(acc, num(w[l]))
		head[l] = num(0).Set(acc)
	}
	acc = num(0)
	for l := 2 * m; l >= m; l-- {
		acc.Add(acc, num(w[l]))
		tail[l] = num(0).Set(acc)
	}
	sumLo, sumHi := num(0), num(0)
	for i, v := range q {
		sumLo.Add(sumLo, num(0).Mul(num(v), head[m-i]))
		sumHi.Add(sumHi, num(0).Mul(num(v), tail[2*m-i]))
	}
	lo, _ = sumLo.Float64()
	hi, _ = sumHi.Float64()
	return lo, hi
}

// ulps is |got − want| in units in the last place of want.
func ulps(got, want float64) float64 {
	return math.Abs(got-want) / (math.Nextafter(want, math.Inf(1)) - want)
}

// TestStepMatchesNaiveConvolution: one step of both processes, before the
// clamp and renormalization, equals the direct convolution plus the fold
// within (M+1)·1e-16 in every bin, and its end bins equal the exactly
// summed fold within a few ulps, on random pmfs whose masses span 1 to
// 1e-30, at every resolution in stepSizes.
func TestStepMatchesNaiveConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range stepSizes {
		ql, qh := randomPMF(rng, m+1), randomPMF(rng, m+1)
		wl, wh := randomPMF(rng, 2*m+1), randomPMF(rng, 2*m+1)
		it := stepIterator(t, m, ql, qh, wl, wh)
		rawL, rawH := make([]float64, m+1), make([]float64, m+1)
		it.stepRaw(it.ql, it.qh, rawL, rawH)
		for _, p := range []struct {
			name string
			raw  []float64
			q, w []float64
		}{{"lower", rawL, ql, wl}, {"upper", rawH, qh, wh}} {
			want := naiveStep(p.q, p.w, m)
			tol := float64(m+1) * 1e-16
			for j := range want {
				if d := math.Abs(p.raw[j] - want[j]); d > tol {
					t.Errorf("M=%d %s bin %d: %g, naive %g (off by %g > %g)", m, p.name, j, p.raw[j], want[j], d, tol)
				}
			}
			lo, hi := exactEnds(p.q, p.w, m)
			if u := ulps(p.raw[0], lo); u > 4 {
				t.Errorf("M=%d %s bin 0: %v, exact %v (%.1f ulps)", m, p.name, p.raw[0], lo, u)
			}
			if u := ulps(p.raw[m], hi); u > 4 {
				t.Errorf("M=%d %s bin M: %v, exact %v (%.1f ulps)", m, p.name, p.raw[m], hi, u)
			}
		}
	}
}

// TestStepProcessesDoNotMix: the two processes share one transform pair,
// so the upper one's mass must not leak into the lower one's window. With
// the lower process empty and an increment pmf that cannot rise above
// B/2, and the upper process almost full, every lower bin above B/2 is
// unreachable and must stay within 1e-16 of zero.
func TestStepProcessesDoNotMix(t *testing.T) {
	const m = 1024
	rng := rand.New(rand.NewSource(5))
	wl := make([]float64, 2*m+1)
	copy(wl, randomPMF(rng, m+m/2+1)) // increments of at most B/2
	wh := randomPMF(rng, 2*m+1)
	ql := make([]float64, m+1)
	ql[0] = 1
	qh := randomPMF(rng, m+1)
	for i := range qh {
		qh[i] *= 1e-3
	}
	qh[m] += 1 - 1e-3
	it := stepIterator(t, m, ql, qh, wl, wh)
	rawL, rawH := make([]float64, m+1), make([]float64, m+1)
	it.stepRaw(it.ql, it.qh, rawL, rawH)
	for j := m/2 + 1; j <= m; j++ {
		if v := math.Abs(rawL[j]); v > 1e-16 {
			t.Errorf("lower bin %d, unreachable from 0, reads %g", j, rawL[j])
		}
	}
}
