package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/numerics"
)

// randomModel draws a random, valid, stable queue from a seed.
func randomModel(seed int64) (Queue, bool) {
	rng := rand.New(rand.NewSource(seed))
	// Marginal: 2–6 atoms with random rates in [0, 10).
	n := rng.Intn(5) + 2
	rates := make([]float64, n)
	probs := make([]float64, n)
	var total float64
	for i := range rates {
		rates[i] = rng.Float64() * 10
		probs[i] = rng.Float64() + 0.01
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	m, err := dist.NewMarginal(rates, probs)
	if err != nil {
		return Queue{}, false
	}
	if m.Variance() <= 1e-6 {
		return Queue{}, false
	}
	src, err := fluid.New(m, dist.TruncatedPareto{
		Theta:  0.005 + rng.Float64()*0.1,
		Alpha:  1.05 + rng.Float64()*0.9,
		Cutoff: 0.1 + rng.Float64()*10,
	})
	if err != nil {
		return Queue{}, false
	}
	util := 0.3 + rng.Float64()*0.6
	nbuf := 0.01 + rng.Float64()*0.5
	q, err := NewQueueNormalized(src, util, nbuf)
	if err != nil {
		return Queue{}, false
	}
	return q, true
}

// TestPropertyBoundsAlwaysOrdered: for arbitrary valid models, at every
// iteration the lower loss bound never exceeds the upper, the occupancy
// vectors stay probability distributions, and both bounds stay in [0, 1].
func TestPropertyBoundsAlwaysOrdered(t *testing.T) {
	f := func(seed int64) bool {
		q, ok := randomModel(seed)
		if !ok {
			return true
		}
		it, err := NewIterator(q, Config{InitialBins: 64, MaxBins: 64})
		if err != nil {
			return false
		}
		for n := 0; n < 30; n++ {
			it.Step()
			lo, hi := it.LossBounds()
			if lo > hi+1e-9 || lo < 0 || hi > 1+1e-9 {
				return false
			}
			for _, qv := range [][]float64{it.LowerOccupancy(), it.UpperOccupancy()} {
				if !numerics.AlmostEqual(numerics.KahanSum(qv), 1, 1e-6) {
					return false
				}
				for _, v := range qv {
					if v < 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLossBelowZeroBufferBound: the loss of any finite buffer is
// at most the zero-buffer loss E[(λ−c)⁺]/λ̄ (more buffer can only help).
func TestPropertyLossBelowZeroBufferBound(t *testing.T) {
	f := func(seed int64) bool {
		q, ok := randomModel(seed)
		if !ok {
			return true
		}
		res, err := Solve(q, Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 5000})
		if err != nil {
			return false
		}
		var excess numerics.Accumulator
		m := q.Source.Marginal
		for i := 0; i < m.Len(); i++ {
			if d := m.Rate(i) - q.ServiceRate; d > 0 {
				excess.Add(m.Prob(i) * d)
			}
		}
		zeroBufferLoss := excess.Sum() / m.Mean()
		return res.Upper <= zeroBufferLoss*1.02+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExpectedLossTable: E[W_l|Q=x] is non-negative, increasing in
// x, and bounded by the mean excess work per epoch.
func TestPropertyExpectedLossTable(t *testing.T) {
	f := func(seed int64) bool {
		q, ok := randomModel(seed)
		if !ok {
			return true
		}
		it, err := NewIterator(q, Config{InitialBins: 32, MaxBins: 32})
		if err != nil {
			return false
		}
		prev := -1.0
		var excess numerics.Accumulator
		m := q.Source.Marginal
		for i := 0; i < m.Len(); i++ {
			if d := m.Rate(i) - q.ServiceRate; d > 0 {
				excess.Add(m.Prob(i) * d * q.Source.Interarrival.Mean())
			}
		}
		// E[W_l|Q] <= E[W⁺] <= Σ π_i (λ_i−c)⁺ E[T] (loss can't exceed the
		// epoch's excess inflow)… using the truncated mean makes this a
		// valid upper bound up to Jensen slack; allow a generous factor.
		cap := excess.Sum()*4 + 1e-9
		for _, x := range numerics.Linspace(0, q.Buffer, 33) {
			v := it.ExpectedLossGivenOccupancy(x)
			if v < prev-1e-12 || v < 0 {
				return false
			}
			if v > cap && v > 1e-9 {
				// The per-epoch loss must stay within the same order as
				// the per-epoch excess inflow.
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWorkCDFIsDistribution: the increment CDF is monotone with
// limits 0 and 1 for arbitrary models.
func TestPropertyWorkCDFIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		q, ok := randomModel(seed)
		if !ok {
			return true
		}
		it, err := NewIterator(q, Config{InitialBins: 16, MaxBins: 16})
		if err != nil {
			return false
		}
		span := (q.Source.Marginal.Max() + q.ServiceRate) * math.Min(q.Source.Interarrival.Cutoff, 1e6)
		tail := q.Source.Interarrival.TailFunc()
		prev := -1.0
		for _, x := range numerics.Linspace(-span-1, span+1, 101) {
			_, v, _ := it.gridPoint(x, tail, false)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		// The mixture sums renormalized probabilities, so the limits are
		// exact only to within an ulp of the mass normalization.
		_, hi, _ := it.gridPoint(span+2, tail, false)
		_, lo, _ := it.gridPoint(-span-2, tail, false)
		return hi > 1-1e-9 && lo < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
