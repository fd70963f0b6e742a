package solver

import (
	"math"
	"math/rand"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/numerics"
	"lrd/internal/traces"
)

// powLaw is a law's concrete per-point methods, which evaluate the
// truncated Pareto through math.Pow: the reference the one-pass grid
// tables are checked against.
type powLaw interface {
	CCDF(float64) float64
	CCDFAtLeast(float64) float64
	IntegralCCDF(float64) float64
}

// refWorkCDF is the per-point evaluation of the work-increment cdfs that
// gridTables replaced: Pr{W < x} and Pr{W <= x} for W = T·(λ−c), read from
// the law's concrete methods.
func refWorkCDF(m Model, law powLaw, x float64) (strict, nonstrict float64) {
	var accS, accN numerics.Accumulator
	for i := 0; i < m.Marginal.Len(); i++ {
		pi := m.Marginal.Prob(i)
		drift := m.Marginal.Rate(i) - m.ServiceRate
		switch {
		case drift == 0:
			if x > 0 {
				accS.Add(pi)
				accN.Add(pi)
			} else if x == 0 {
				accN.Add(pi)
			}
		case drift > 0:
			if x <= 0 {
				continue
			}
			accS.Add(pi * (1 - law.CCDFAtLeast(x/drift)))
			accN.Add(pi * (1 - law.CCDF(x/drift)))
		default:
			if x >= 0 {
				accS.Add(pi)
				accN.Add(pi)
				continue
			}
			accS.Add(pi * law.CCDF(x/drift))
			accN.Add(pi * law.CCDFAtLeast(x/drift))
		}
	}
	return numerics.Clamp(accS.Sum(), 0, 1), numerics.Clamp(accN.Sum(), 0, 1)
}

// refExpectedLoss is the per-point E[W_l | Q = x] that gridTables replaced,
// with the law read at (B − x)/(λ−c) rather than at the grid table's
// (M − j)·d/(λ−c), which is the same point in exact arithmetic.
func refExpectedLoss(m Model, law powLaw, x float64) float64 {
	var acc numerics.Accumulator
	for i := 0; i < m.Marginal.Len(); i++ {
		drift := m.Marginal.Rate(i) - m.ServiceRate
		if drift > 0 {
			acc.Add(m.Marginal.Prob(i) * drift * law.IntegralCCDF((m.Buffer-x)/drift))
		}
	}
	return acc.Sum()
}

// tableModels are the laws and marginals the table tests cover: the
// two-rate on/off marginal under a Pareto law with a finite and an
// infinite cutoff and under a hyperexponential law, and the 50-bin
// marginal of the MTV stand-in trace (util 0.8, B = 0.5 s of service).
func tableModels(t *testing.T) map[string]Model {
	t.Helper()
	onoff := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	h, err := dist.NewHyperexponential([]float64{0.3, 0.7}, []float64{0.01, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traces.MTV(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	mtv, err := tr.Marginal(50)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := tr.MeanEpoch(50)
	if err != nil {
		t.Fatal(err)
	}
	alpha := dist.AlphaFromHurst(0.83)
	mtvSrc, err := fluid.New(mtv, dist.TruncatedPareto{Theta: (alpha - 1) * epoch, Alpha: alpha, Cutoff: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	mtvQueue, err := NewQueueNormalized(mtvSrc, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Model{
		"pareto-tc0.3": {onoff, dist.TruncatedPareto{Theta: 0.02, Alpha: 1.4, Cutoff: 0.3}, 1.25, 0.625},
		"pareto-tcinf": {onoff, dist.TruncatedPareto{Theta: 0.02, Alpha: 1.4, Cutoff: math.Inf(1)}, 1.25, 0.625},
		"hyperexp":     {onoff, h, 1.25, 0.625},
		"mtv50":        mtvQueue.Model(),
	}
}

// TestGridTablesMatchReference holds the one-pass tables to the per-point
// math.Pow evaluation they replaced, at grids as coarse as one bin. A cdf
// entry sums terms π_k·Pr{T ≷ t}, each within 4ε·(1 + α·log u) relative
// of the reference (dist.TestCCDFBothBitwise); since
// log(u)·u^(−α) <= 1/(e·α), the terms' errors sum to at most 5.5ε, and the
// two compensated sums' roundings add 2ε each, so the cdfs agree within
// 10ε absolute. A loss entry moves by the law's error on each term's head
// θ/(α−1)·u^(1−α) and by the shift of its evaluation point from
// (B − j·d) to (M − j)·d, a few ulps of B at a slope of at most one; it is
// held within 1e-15 of E[W_l | Q = B] + B. The hyperexponential law's
// tables read the same exponentials as its concrete methods, so its cdf
// entries must be bitwise equal.
func TestGridTablesMatchReference(t *testing.T) {
	const eps = 0x1p-52
	for name, m := range tableModels(t) {
		law := m.Interarrival.(powLaw)
		_, exact := m.Interarrival.(dist.Hyperexponential)
		for _, bins := range []int{1, 2, 3, 32, 100, 1024} {
			it, err := newIterator(m, Config{MaxBins: bins}, bins)
			if err != nil {
				t.Fatal(err)
			}
			var worstCDF, worstLoss float64
			for i := -bins; i <= bins+1; i++ {
				s, n := refWorkCDF(m, law, float64(i)*it.d)
				errS, errN := math.Abs(it.cl[i+bins]-s), math.Abs(it.cc[i+bins]-n)
				worstCDF = math.Max(worstCDF, math.Max(errS, errN))
				if exact && (errS != 0 || errN != 0) || errS > 10*eps || errN > 10*eps {
					t.Errorf("%s M=%d x=%d·d: cdfs (%v, %v), reference (%v, %v)",
						name, bins, i, it.cl[i+bins], it.cc[i+bins], s, n)
				}
			}
			scale := it.loss[bins] + m.Buffer
			for j := 0; j <= bins; j++ {
				want := refExpectedLoss(m, law, float64(j)*it.d)
				e := math.Abs(it.loss[j] - want)
				worstLoss = math.Max(worstLoss, e/scale)
				if e > 1e-15*scale {
					t.Errorf("%s M=%d j=%d: loss %v, reference %v", name, bins, j, it.loss[j], want)
				}
			}
			t.Logf("%s M=%d: worst cdf error %.3g, worst loss error %.3g of E[W_l|Q=B]+B", name, bins, worstCDF, worstLoss)
			it.release()
		}
	}
}

// TestRefinedTablesEqualFreshBuild pins the even-entry reuse of a
// resolution doubling: after Refine from M to 2M and 4M, every table a
// step or a loss evaluation reads must be bitwise equal to a fresh build at
// that rung.
func TestRefinedTablesEqualFreshBuild(t *testing.T) {
	const bins = 64
	for name, m := range tableModels(t) {
		it, err := newIterator(m, Config{MaxBins: 4 * bins}, bins)
		if err != nil {
			t.Fatal(err)
		}
		for _, rung := range []int{2 * bins, 4 * bins} {
			if !it.Refine() || it.bins != rung {
				t.Fatalf("%s: Refine to %d failed (at %d)", name, rung, it.bins)
			}
			fresh, err := newIterator(m, Config{MaxBins: rung}, rung)
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range []struct {
				name       string
				got, fresh []float64
			}{
				{"cl", it.cl, fresh.cl}, {"cc", it.cc, fresh.cc}, {"loss", it.loss, fresh.loss},
				{"wl", it.wl, fresh.wl}, {"wh", it.wh, fresh.wh},
				{"headL", it.headL, fresh.headL}, {"tailL", it.tailL, fresh.tailL},
				{"headH", it.headH, fresh.headH}, {"tailH", it.tailH, fresh.tailH},
			} {
				if len(tab.got) != len(tab.fresh) {
					t.Fatalf("%s M=%d %s: length %d, fresh %d", name, rung, tab.name, len(tab.got), len(tab.fresh))
				}
				for k := range tab.got {
					if math.Float64bits(tab.got[k]) != math.Float64bits(tab.fresh[k]) {
						t.Errorf("%s M=%d %s[%d] = %v after Refine, %v fresh", name, rung, tab.name, k, tab.got[k], tab.fresh[k])
						break
					}
				}
			}
			fresh.release()
		}
		it.release()
	}
}
