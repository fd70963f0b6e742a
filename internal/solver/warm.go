package solver

import (
	"context"
	"math"

	"lrd/internal/numerics"
	"lrd/internal/obs"
)

// Seed carries a solved cell's final occupancy vectors so a neighboring
// cell — same source, same service rate, equal or larger buffer — can start
// its bound iteration from them instead of from the empty/full extremes.
//
// Validity (the cross-cell generalization of Prop. II.1's warm restart):
// let stat(B) be the stationary occupancy at buffer B and B' <= B the
// seeding cell's buffer.
//
//   - Lower: the bounded Lindley recursion is pathwise monotone in the
//     buffer cap, so stat(B') <=st stat(B). The neighbor's lower vector is
//     <=st stat(B'), and projecting its mass down onto the coarser/finer
//     grid preserves <=st. A lower chain started from any vector <=st
//     stat(B) stays <=st stat(B) (the down-rounded kernel is stochastically
//     monotone and its image of stat lies below stat), so every iterate's
//     loss estimate remains a valid lower bound.
//   - Upper: coupling the two recursions with a Δ = B−B' shift gives
//     Q_B(n) <= Q_B'(n) + Δ pathwise, so stat(B) <=st stat(B') + Δ. The
//     neighbor's upper vector shifted up by Δ, projected upward onto the
//     grid and capped at B, is therefore >=st stat(B), and the up-rounded
//     kernel preserves that dominance.
//
// No such ordering exists along the cutoff axis (the work increment
// T·(λ−c) takes both signs), so seeds only chain across buffer sizes.
//
// The seeded iterates are valid brackets at every step but are not the
// paper's monotone-from-below/above sequences, so warm results can differ
// from a cold solve in where inside the bracket they stop: bounds are
// warm-start-dependent in their low-order digits, and warm starts are
// therefore opt-in.
type Seed struct {
	// ServiceRate identifies the seeding cell's server; seeding across
	// different service rates (or sources — the caller's contract) is
	// invalid and rejected.
	ServiceRate float64
	// Buffer is the seeding cell's B' in work units; must be <= the seeded
	// cell's buffer.
	Buffer float64
	// Step and Bins describe the seeding grid: vectors of length Bins+1
	// over {0, Step, …, Bins·Step}.
	Step float64
	Bins int
	// Lower and Upper are the seeding solve's final occupancy pmfs.
	Lower, Upper []float64
	// Iterations is the seeding solve's iteration count (metrics only: the
	// natural estimate of what the seeded cell would have cost cold).
	Iterations int
}

// SeedFromResult packages a solve's result as a warm-start seed for its
// grid neighbors. m must be the model that produced r. Returns nil when the
// result carries no occupancy vectors (never the case for solver results,
// but journal-adopted points have none — a chain break).
func SeedFromResult(m Model, r Result) *Seed {
	if r.Bins < 1 || r.GridStep <= 0 ||
		len(r.LowerOccupancy) != r.Bins+1 || len(r.UpperOccupancy) != r.Bins+1 {
		return nil
	}
	return &Seed{
		ServiceRate: m.ServiceRate,
		Buffer:      m.Buffer,
		Step:        r.GridStep,
		Bins:        r.Bins,
		Lower:       r.LowerOccupancy,
		Upper:       r.UpperOccupancy,
		Iterations:  r.Iterations,
	}
}

// compatible reports whether the seed can validly warm-start a solve of m:
// same service rate, seeding buffer not larger, sane grid, and near-unit
// mass in both vectors.
func (s *Seed) compatible(m Model) bool {
	if s == nil || s.ServiceRate != m.ServiceRate || !(s.Buffer <= m.Buffer) {
		return false
	}
	if s.Bins < 1 || !(s.Step > 0) || math.IsInf(s.Step, 0) ||
		len(s.Lower) != s.Bins+1 || len(s.Upper) != s.Bins+1 {
		return false
	}
	const massTol = 1e-6
	for _, v := range [2][]float64{s.Lower, s.Upper} {
		sum := numerics.KahanSum(v)
		if math.IsNaN(sum) || math.Abs(sum-1) > massTol {
			return false
		}
	}
	return true
}

// NewModelIteratorSeeded is NewModelIterator with a cross-cell warm start:
// the iterator begins at (near) the seed's resolution — skipping the
// coarse rungs of the M-doubling ladder — with its occupancy vectors
// projected from the seed as described on Seed. An incompatible or nil
// seed falls back to a cold NewModelIterator and counts a warm rejection.
func NewModelIteratorSeeded(m Model, cfg Config, seed *Seed) (*Iterator, error) {
	if !seed.compatible(m) {
		if rec := cfg.Recorder; rec != nil && seed != nil {
			rec.Add(obs.MetricSolverWarmRejected, 1)
		}
		return NewModelIterator(m, cfg)
	}
	def := cfg.withDefaults()
	// Start at the ladder rung nearest the seed's resolution from below.
	bins := def.InitialBins
	for bins*2 <= seed.Bins && bins*2 <= def.MaxBins {
		bins *= 2
	}
	it, err := newIterator(m, cfg, bins)
	if err != nil {
		return nil, err
	}
	it.seedOccupancies(seed)
	it.lowerLoss = it.lossOf(it.ql)
	it.upperLoss = it.lossOf(it.qh)
	if it.lowerLoss > it.upperLoss*(1+boundOrderRelTol)+invariantAbsTol {
		// Pathological seed (possible only if the caller's same-source
		// contract was broken): discard it and start cold at this rung —
		// still a valid solve, just without the ladder's coarse rungs.
		if rec := cfg.Recorder; rec != nil {
			rec.Add(obs.MetricSolverWarmRejected, 1)
		}
		clear(it.ql)
		clear(it.qh)
		it.ql[0] = 1
		it.qh[it.bins] = 1
		it.lowerLoss = it.lossOf(it.ql)
		it.upperLoss = it.lossOf(it.qh)
		return it, nil
	}
	it.warm = true
	it.seedIters = seed.Iterations
	return it, nil
}

// seedOccupancies projects the seed vectors onto this iterator's grid:
// lower mass moves down (preserving <=st), upper mass is shifted up by
// Δ = B−B', moved up to the next grid point, and capped at B. Both vectors
// are renormalized to unit mass exactly as lindleyStepInto renormalizes.
func (it *Iterator) seedOccupancies(seed *Seed) {
	m, d := it.bins, it.d
	delta := it.model.Buffer - seed.Buffer
	for j, p := range seed.Lower {
		if p == 0 {
			continue
		}
		x := float64(j) * seed.Step
		idx := int(x / d)
		if idx > m {
			idx = m
		}
		// Guard the floor against the division rounding up across an
		// integer: the target grid point must not exceed x.
		for idx > 0 && float64(idx)*d > x {
			idx--
		}
		it.ql[idx] += p
	}
	for j, p := range seed.Upper {
		if p == 0 {
			continue
		}
		x := float64(j)*seed.Step + delta
		idx := int(math.Ceil(x / d))
		// Guard the ceil against the division rounding down: the target
		// grid point must not fall below x (unless capped at B, which is
		// the valid min(B,·) projection).
		for idx < m && float64(idx)*d < x {
			idx++
		}
		if idx > m {
			idx = m
		}
		if idx < 0 {
			idx = 0
		}
		it.qh[idx] += p
	}
	for _, q := range [2][]float64{it.ql, it.qh} {
		if total := numerics.KahanSum(q); total > 0 {
			inv := 1 / total
			for i := range q {
				q[i] *= inv
			}
		}
	}
}

// SolveModelSeeded is SolveModelContext with a cross-cell warm start; see
// NewModelIteratorSeeded. It follows the same degrade-gracefully contract.
func SolveModelSeeded(ctx context.Context, m Model, cfg Config, seed *Seed) (Result, error) {
	it, err := NewModelIteratorSeeded(m, cfg, seed)
	if err != nil {
		return Result{}, err
	}
	return it.solve(ctx)
}
