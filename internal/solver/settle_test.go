package solver

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lrd/internal/faultinject"
	"lrd/internal/numerics"
)

// settleRef and lossOfRef are one process's clamp, renormalization and
// loss evaluation as they stood before Iterator.settle fused them over
// both processes, kept verbatim as the reference it must match bit for bit.
func settleRef(q []float64) float64 {
	faultinject.Apply(faultinject.SolverConvolution, q)
	for j, v := range q {
		q[j] = math.Max(v, 0)
	}
	total := numerics.KahanSum(q)
	if total > 0 {
		inv := 1 / total
		for j := range q {
			q[j] *= inv
		}
	}
	return total - 1
}

func lossOfRef(it *Iterator, q []float64) float64 {
	var acc numerics.Accumulator
	for j, mass := range q {
		if mass == 0 {
			continue
		}
		acc.Add(mass * it.loss[j])
	}
	return acc.Sum() / it.arrivalWork
}

// TestSettleMatchesReference: on the same raw stepped vectors — random
// pmfs off unit mass with ~1-ulp negatives, vectors salted with negative
// entries, −0, +Inf and NaN, and an all-zero vector (the total-0 path) —
// the fused settle leaves both vectors, and returns drifts and losses,
// with the bits of settleRef followed by lossOfRef, NaN payloads aside.
func TestSettleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specials := []float64{-1e-17, -3e-300, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	raw := map[string]func(n int) []float64{
		"pmf": func(n int) []float64 {
			q := randomPMF(rng, n)
			for j := range q {
				q[j] *= 1 + 1e-13*rng.NormFloat64()
				if rng.Intn(8) == 0 {
					q[j] = -math.Abs(q[j]) * 1e-16
				}
			}
			return q
		},
		"specials": func(n int) []float64 {
			q := randomPMF(rng, n)
			for k := 0; k < 1+n/16; k++ {
				q[rng.Intn(n)] = specials[rng.Intn(len(specials))]
			}
			return q
		},
		"negative": func(n int) []float64 {
			q := randomPMF(rng, n)
			for k := 0; k < 1+n/8; k++ {
				q[rng.Intn(n)] = -rng.Float64()
			}
			return q
		},
		"zero": func(n int) []float64 { return make([]float64, n) },
	}
	names := []string{"pmf", "specials", "negative", "zero"}
	for _, m := range stepSizes {
		it := stepIterator(t, m, randomPMF(rng, m+1), randomPMF(rng, m+1), randomPMF(rng, 2*m+1), randomPMF(rng, 2*m+1))
		for _, nl := range names {
			for _, nh := range names {
				ql, qh := raw[nl](m+1), raw[nh](m+1)
				wantL, wantH := slices.Clone(ql), slices.Clone(qh)
				wantDriftL, wantDriftH := settleRef(wantL), settleRef(wantH)
				wantLo, wantHi := lossOfRef(it, wantL), lossOfRef(it, wantH)
				driftL, driftH, lo, hi := it.settle(ql, qh)
				for _, c := range []struct {
					what      string
					got, want float64
				}{{"lower drift", driftL, wantDriftL}, {"upper drift", driftH, wantDriftH},
					{"lower loss", lo, wantLo}, {"upper loss", hi, wantHi}} {
					if !sameFloatBits(c.got, c.want) {
						t.Fatalf("M=%d %s/%s: %s %v, reference %v", m, nl, nh, c.what, c.got, c.want)
					}
				}
				for j := range ql {
					if !sameFloatBits(ql[j], wantL[j]) || !sameFloatBits(qh[j], wantH[j]) {
						t.Fatalf("M=%d %s/%s bin %d: (%v, %v), reference (%v, %v)",
							m, nl, nh, j, ql[j], qh[j], wantL[j], wantH[j])
					}
				}
			}
		}
	}
}

// sameFloatBits reports whether a and b have identical bits, counting any
// NaN equal to any NaN.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestStepFaultPointSeesRawVectors: an armed SolverConvolution hook fires
// twice per step, on the lower process's raw stepped vector and then the
// upper one's, before the clamp: each call sees exactly what stepRaw
// writes for that step. The lower process starts empty with increments of
// at most B/2, as in TestStepProcessesDoNotMix, so its unreachable bins
// hold transform roundoff of either sign.
func TestStepFaultPointSeesRawVectors(t *testing.T) {
	defer faultinject.Reset()
	const m = 128
	rng := rand.New(rand.NewSource(9))
	wl := make([]float64, 2*m+1)
	copy(wl, randomPMF(rng, m+m/2+1))
	ql := make([]float64, m+1)
	ql[0] = 1
	qh := make([]float64, m+1)
	qh[m] = 1
	it := stepIterator(t, m, ql, qh, wl, randomPMF(rng, 2*m+1))
	it.warm = true // the swapped-in pmfs make no monotone bounds
	var seen [][]float64
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		seen = append(seen, slices.Clone(xs))
	})
	const steps = 5
	negatives := 0
	for n := 0; n < steps; n++ {
		wantL, wantH := make([]float64, it.Bins()+1), make([]float64, it.Bins()+1)
		it.stepRaw(it.ql, it.qh, wantL, wantH)
		seen = seen[:0]
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2 {
			t.Fatalf("step %d: hook fired %d times, want 2", n, len(seen))
		}
		for p, want := range [][]float64{wantL, wantH} {
			if !slices.EqualFunc(seen[p], want, sameFloatBits) {
				t.Fatalf("step %d, call %d: the hook did not see the raw %s vector", n, p+1, [...]string{"lower", "upper"}[p])
			}
			for _, v := range want {
				if v < 0 || math.Signbit(v) {
					negatives++
				}
			}
		}
	}
	if negatives == 0 {
		t.Fatal("no raw value below +0: the test cannot tell raw vectors from clamped ones")
	}
	if got := faultinject.Fired(faultinject.SolverConvolution); got != 2*steps {
		t.Fatalf("hook fired %d times over %d steps, want %d", got, steps, 2*steps)
	}
}
