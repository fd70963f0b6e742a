// Package markov builds Markovian (phase-type) traffic models that match a
// target autocorrelation function up to a chosen horizon — the modeling
// strategy §IV of the paper argues is sufficient for loss prediction: "we
// may choose any model among the panoply of available models (including
// Markovian and self-similar models) as long as the chosen model captures
// the correlation structure up to CH".
//
// A power-law correlation r(t) is approximated by a non-negative sum of
// exponentials r(t) ≈ Σ_k w_k·exp(−t/τ_k) (the classical construction, cf.
// Feldmann & Whitt). For a renewal-modulated fluid source the
// autocorrelation equals the residual-life ccdf of the epoch law (Eq. 3 of
// the paper), and a hyperexponential epoch law with mixture weights
// a_k ∝ w_k/τ_k realizes exactly that correlation — so matching the
// correlation function fully determines the Markovian model (including its
// mean epoch length, via r′(0) = −1/E[T]). The resulting model plugs
// directly into the same numerical solver.
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lrd/internal/dist"
	"lrd/internal/numerics"
	"lrd/internal/solver"
)

// Component is one exponential mode of a fitted correlation function.
type Component struct {
	Weight float64 // w_k >= 0; weights of a correlation fit sum to 1
	Scale  float64 // time constant τ_k > 0 (seconds)
}

// FitOptions tunes FitCorrelation.
type FitOptions struct {
	// Components is the number K of exponential modes (log-spaced time
	// constants). Zero selects 4 modes per decade of fitted range, at
	// least 4.
	Components int
	// Samples is the number of fit points, log-spaced on (0, horizon].
	// Zero selects 200.
	Samples int
	// Iterations bounds the non-negative least-squares sweeps. Zero
	// selects 20000.
	Iterations int
}

// FitCorrelation approximates corr (a normalized autocorrelation with
// corr(0) = 1, non-increasing) on [0, horizon] by a non-negative mixture of
// exponentials whose weights sum to one. The fit minimizes the squared
// error on a log-spaced time grid by coordinate-descent NNLS, then
// renormalizes the weights (a projection that changes them only within the
// fit's residual error, keeping r(0) = 1 exact).
func FitCorrelation(corr func(float64) float64, horizon float64, opts FitOptions) ([]Component, error) {
	if corr == nil {
		return nil, errors.New("markov: nil correlation function")
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("markov: horizon %v must be finite and positive", horizon)
	}
	nsamp := opts.Samples
	if nsamp <= 0 {
		nsamp = 200
	}
	// Fit grid: t = 0 plus log-spaced points down to horizon/1e4. The t = 0
	// sample is replicated to pin r(0) = 1 tightly, so the final weight
	// renormalization is a negligible correction.
	tmin := horizon / 1e4
	grid := numerics.Logspace(tmin, horizon, nsamp-1)
	ts := make([]float64, 0, nsamp+15)
	for i := 0; i < 16; i++ {
		ts = append(ts, 0)
	}
	ts = append(ts, grid...)
	y := make([]float64, len(ts))
	for i, t := range ts {
		v := corr(t)
		if math.IsNaN(v) || v < -1 || v > 1+1e-9 {
			return nil, fmt.Errorf("markov: correlation value %v at t=%v out of range", v, t)
		}
		y[i] = v
	}
	k := opts.Components
	if k <= 0 {
		decades := math.Log10(horizon / tmin)
		k = int(4*decades) + 1
		if k < 4 {
			k = 4
		}
	}
	scales := numerics.Logspace(tmin, horizon, k)
	// Design matrix columns A_k(t) = exp(−t/τ_k).
	cols := make([][]float64, k)
	norms := make([]float64, k)
	for j := range cols {
		col := make([]float64, len(ts))
		var n2 float64
		for i, t := range ts {
			col[i] = math.Exp(-t / scales[j])
			n2 += col[i] * col[i]
		}
		cols[j] = col
		norms[j] = n2
	}
	w := make([]float64, k)
	resid := append([]float64(nil), y...) // resid = y − A·w, maintained incrementally
	iters := opts.Iterations
	if iters <= 0 {
		iters = 20000
	}
	for sweep := 0; sweep < iters; sweep++ {
		maxMove := 0.0
		for j := 0; j < k; j++ {
			// One-dimensional exact minimization over w_j >= 0.
			var g float64
			for i := range resid {
				g += cols[j][i] * resid[i]
			}
			nw := w[j] + g/norms[j]
			if nw < 0 {
				nw = 0
			}
			delta := nw - w[j]
			if delta != 0 {
				for i := range resid {
					resid[i] -= delta * cols[j][i]
				}
				w[j] = nw
				if m := math.Abs(delta); m > maxMove {
					maxMove = m
				}
			}
		}
		if maxMove < 1e-12 {
			break
		}
	}
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return nil, errors.New("markov: NNLS fit collapsed to zero")
	}
	out := make([]Component, 0, k)
	for j := range w {
		if w[j] <= 1e-12 {
			continue
		}
		out = append(out, Component{Weight: w[j] / total, Scale: scales[j]})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Scale < out[b].Scale })
	if len(out) == 0 {
		return nil, errors.New("markov: no active components after fit")
	}
	return out, nil
}

// Evaluate returns the fitted correlation Σ w_k·exp(−t/τ_k) at lag t.
func Evaluate(comps []Component, t float64) float64 {
	var acc numerics.Accumulator
	for _, c := range comps {
		acc.Add(c.Weight * math.Exp(-t/c.Scale))
	}
	return acc.Sum()
}

// MaxError returns the largest absolute deviation between corr and the fit
// on a log-spaced grid over (0, horizon].
func MaxError(corr func(float64) float64, comps []Component, horizon float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	worst := math.Abs(corr(0) - Evaluate(comps, 0))
	for _, t := range numerics.Logspace(horizon/1e4, horizon, n) {
		if d := math.Abs(corr(t) - Evaluate(comps, t)); d > worst {
			worst = d
		}
	}
	return worst
}

// Interarrival converts correlation components into the hyperexponential
// epoch law realizing that correlation in the renewal-modulated fluid
// model: mixture weights a_k ∝ w_k/τ_k with the same time constants. The
// implied mean epoch length is E[T] = 1/Σ(w_k/τ_k) (from r′(0) = −1/E[T]).
func Interarrival(comps []Component) (dist.Hyperexponential, error) {
	if len(comps) == 0 {
		return dist.Hyperexponential{}, errors.New("markov: no components")
	}
	weights := make([]float64, len(comps))
	scales := make([]float64, len(comps))
	for i, c := range comps {
		if !(c.Scale > 0) || c.Weight < 0 {
			return dist.Hyperexponential{}, fmt.Errorf("markov: invalid component %+v", c)
		}
		weights[i] = c.Weight / c.Scale
		scales[i] = c.Scale
	}
	return dist.NewHyperexponential(weights, scales)
}

// EquivalentModel replaces a model's epoch law with the Markovian
// (hyperexponential) law fitted to the original source's autocorrelation
// up to the given horizon, keeping the marginal, service rate, and buffer.
// It returns the new model and the fitted components. This is the paper's
// §IV program made executable: if horizon >= the correlation horizon of
// (B, c), the Markovian model predicts (nearly) the same loss rate.
func EquivalentModel(m solver.Model, horizon float64, opts FitOptions) (solver.Model, []Component, error) {
	comps, err := FitCorrelation(m.Interarrival.ResidualCCDF, horizon, opts)
	if err != nil {
		return solver.Model{}, nil, err
	}
	h, err := Interarrival(comps)
	if err != nil {
		return solver.Model{}, nil, err
	}
	out, err := solver.NewModel(m.Marginal, h, m.ServiceRate, m.Buffer)
	if err != nil {
		return solver.Model{}, nil, err
	}
	return out, comps, nil
}
