package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lrd/internal/horizon"
	"lrd/internal/shuffle"
	"lrd/internal/sim"
	"lrd/internal/solver"
	"lrd/internal/traces"
)

// ShufflePoint is one cell of a trace-driven shuffle experiment
// (Figs. 7, 8, 14): the simulated loss of the finite-buffer queue fed by
// an externally shuffled trace.
type ShufflePoint struct {
	NormalizedBuffer float64 // B/c in seconds
	BlockLen         float64 // shuffle block length in seconds ("cutoff")
	Loss             float64
}

// ShuffleLossSurface reproduces Figs. 7 and 8: for each shuffle block
// length (the empirical cutoff lag) the trace is externally shuffled once
// and driven through queues of every buffer size. A block length of
// math.Inf(1) means no shuffling (the original trace). The service rate is
// set from the trace's mean rate and the requested utilization.
//
// The block × buffer cells (cell i at block i/len(buffers), buffer
// i%len(buffers)) run through the sweep engine like every solved surface:
// on the worker pool, with cell telemetry, journaled and resumable through
// cfg.Store, and leased when the store is shared by a fleet. On
// cancellation the completed points are returned together with the
// context's error, so an interrupted sweep still yields its partial
// surface. Every block is shuffled first, in block order, even on resume:
// the shuffles consume the rng, and skipping one would desynchronize later
// blocks' shuffles between an interrupted run and its resume. All blocks'
// series are held at once.
func ShuffleLossSurface(ctx context.Context, tr traces.Trace, util float64, buffers, blocks []float64, rng *rand.Rand, cfg SweepConfig) ([]ShufflePoint, error) {
	if len(tr.Rates) == 0 {
		return nil, errors.New("core: empty trace")
	}
	if len(buffers) == 0 || len(blocks) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	if !(util > 0 && util < 1) {
		return nil, fmt.Errorf("core: utilization %v outside (0, 1)", util)
	}
	series := make([][]float64, len(blocks))
	for k, blk := range blocks {
		if math.IsInf(blk, 1) {
			series[k] = tr.Rates
			continue
		}
		nbins := int(math.Round(blk / tr.BinWidth))
		if nbins < 1 {
			nbins = 1
		}
		var err error
		if series[k], err = shuffle.External(tr.Rates, nbins, rng); err != nil {
			return nil, err
		}
	}
	c := tr.MeanRate() / util
	nb := len(buffers)
	n := len(blocks) * nb
	key := func(i int) string {
		return "shuffle|u=" + fkey(util) + "|b=" + fkey(buffers[i%nb]) + "|blk=" + fkey(blocks[i/nb])
	}
	return gridSweep(ctx, cfg, n, cellChains(n), key, func(_ context.Context, i int, _ *solver.Seed) (ShufflePoint, *solver.Seed, error) {
		b := buffers[i%nb]
		st, err := sim.RunBinnedTrace(series[i/nb], tr.BinWidth, c, b*c)
		if err != nil {
			return ShufflePoint{}, nil, err
		}
		return ShufflePoint{NormalizedBuffer: b, BlockLen: blocks[i/nb], Loss: st.LossRate()}, nil, nil
	})
}

// HorizonScaling reproduces the Fig. 14 analysis: from a shuffle (or model)
// loss surface it extracts, for every buffer size, the empirical
// correlation horizon — the smallest cutoff whose loss is within tol of
// that buffer's plateau — and fits the horizon-vs-buffer scaling law. The
// paper's finding is an exponent ≈ 1 (the plateau runs parallel to
// B/Tc = γ).
type HorizonScalingResult struct {
	Buffers  []float64 // normalized buffer sizes with a detectable horizon
	Horizons []float64 // empirical correlation horizons (seconds)
	Fit      horizon.ScalingFit
}

// HorizonFromSurface extracts per-buffer horizons from shuffle points and
// fits the scaling law. Points with a zero plateau (no loss even at full
// correlation) are skipped; at least two usable buffers are required.
func HorizonFromSurface(points []ShufflePoint, tol float64) (HorizonScalingResult, error) {
	byBuffer := map[float64]map[float64]float64{} // buffer -> cutoff -> loss
	for _, p := range points {
		if byBuffer[p.NormalizedBuffer] == nil {
			byBuffer[p.NormalizedBuffer] = map[float64]float64{}
		}
		byBuffer[p.NormalizedBuffer][p.BlockLen] = p.Loss
	}
	var res HorizonScalingResult
	for b, curve := range byBuffer {
		cutoffs := make([]float64, 0, len(curve))
		for tc := range curve {
			if !math.IsInf(tc, 1) {
				cutoffs = append(cutoffs, tc)
			}
		}
		if len(cutoffs) < 2 {
			continue
		}
		sort.Float64s(cutoffs)
		losses := make([]float64, len(cutoffs))
		for i, tc := range cutoffs {
			losses[i] = curve[tc]
		}
		ch, err := horizon.FromCurve(cutoffs, losses, tol)
		if err != nil {
			continue // zero plateau: this buffer never loses work
		}
		res.Buffers = append(res.Buffers, b)
		res.Horizons = append(res.Horizons, ch)
	}
	if len(res.Buffers) < 2 {
		return HorizonScalingResult{}, errors.New("core: fewer than two buffers with detectable horizons")
	}
	sortPairs(res.Buffers, res.Horizons)
	fit, err := horizon.LinearScaling(res.Buffers, res.Horizons)
	if err != nil {
		return HorizonScalingResult{}, err
	}
	res.Fit = fit
	return res, nil
}

func sortPairs(keys, vals []float64) {
	sort.Sort(&pairSorter{keys: keys, vals: vals})
}

type pairSorter struct{ keys, vals []float64 }

func (p *pairSorter) Len() int           { return len(p.keys) }
func (p *pairSorter) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p *pairSorter) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
}
