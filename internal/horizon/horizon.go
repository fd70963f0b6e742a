// Package horizon implements the paper's correlation-horizon (CH) analysis
// (§IV): the time scale beyond which correlation in the arrival process no
// longer affects the loss rate of a finite-buffer queue.
//
// Two estimators are provided. Analytic implements Eq. (26), the paper's
// closed form derived from the buffer-resetting argument: the CH is the
// time over which the probability of the buffer neither emptying nor
// overflowing (hence "remembering" the past) stays non-negligible,
//
//	T_CH = B·μ / (2√2·σ_T·σ_λ·erfinv(p))
//
// where μ, σ_T are the mean and standard deviation of the interarrival
// time, σ_λ the standard deviation of the marginal rate, B the buffer, and
// p the residual no-reset probability. FromCurve detects the horizon
// empirically from a loss-vs-cutoff curve as the smallest cutoff whose loss
// reaches a (1−tol) fraction of the plateau value, which is how the paper
// reads Figs. 4, 5, 7, 8. LinearScaling then quantifies the paper's
// Fig. 14 observation that T_CH grows linearly with B.
package horizon

import (
	"errors"
	"fmt"
	"math"

	"lrd/internal/numerics"
	"lrd/internal/solver"
)

// Analytic evaluates Eq. (26). p is the probability that no reset occurs
// over the horizon (the paper takes it "very small"; 0.05 is a reasonable
// default). The interarrival variance must be finite, which holds for any
// finite cutoff lag; for an untruncated Pareto with α < 2 it is infinite
// and an error is returned (the resetting argument's CLT step needs a
// finite variance).
func Analytic(m solver.Model, p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("horizon: no-reset probability %v outside (0, 1)", p)
	}
	mean := m.Interarrival.Mean()
	varT := m.Interarrival.SecondMoment() - mean*mean
	if math.IsInf(varT, 1) || math.IsNaN(varT) {
		return 0, errors.New("horizon: interarrival variance is infinite (untruncated heavy tail); Eq. 26 needs a finite cutoff")
	}
	sigmaT := math.Sqrt(varT)
	sigmaL := math.Sqrt(m.Marginal.Variance())
	if sigmaT == 0 || sigmaL == 0 {
		return 0, errors.New("horizon: degenerate model (zero variance)")
	}
	return m.Buffer * mean / (2 * math.Sqrt2 * sigmaT * sigmaL * math.Erfinv(p)), nil
}

// FromCurve locates the empirical correlation horizon on a loss-vs-cutoff
// curve: the smallest cutoff whose loss is within tol (relative) of the
// plateau, where the plateau is the loss at the largest cutoff. cutoffs
// must be strictly increasing; losses non-negative with a positive plateau.
// tol of 0.1 reads "loss within 10 % of its limiting value".
func FromCurve(cutoffs, losses []float64, tol float64) (float64, error) {
	if len(cutoffs) != len(losses) || len(cutoffs) < 2 {
		return 0, errors.New("horizon: need at least two (cutoff, loss) points")
	}
	if !(tol > 0 && tol < 1) {
		return 0, fmt.Errorf("horizon: tol %v outside (0, 1)", tol)
	}
	for i := 1; i < len(cutoffs); i++ {
		if cutoffs[i] <= cutoffs[i-1] {
			return 0, errors.New("horizon: cutoffs must be strictly increasing")
		}
	}
	plateau := losses[len(losses)-1]
	if plateau <= 0 {
		return 0, errors.New("horizon: plateau loss is zero; no horizon to detect")
	}
	for i, l := range losses {
		if l >= plateau*(1-tol) {
			return cutoffs[i], nil
		}
	}
	return cutoffs[len(cutoffs)-1], nil
}

// ScalingFit reports how the horizon scales with buffer size: it fits
// log T_CH ≈ a + e·log B and returns the exponent e and the ratio γ̄ =
// mean(B/T_CH). The paper's Fig. 14 finding is e ≈ 1 (linear scaling) with
// the plateau running parallel to B/T_c = γ.
type ScalingFit struct {
	Exponent float64 // log-log slope e
	Gamma    float64 // mean of B_i / T_CH,i (meaningful when e ≈ 1)
}

// LinearScaling fits the horizon-vs-buffer relation. Both slices must be
// positive and of equal length >= 2.
func LinearScaling(buffers, horizons []float64) (ScalingFit, error) {
	if len(buffers) != len(horizons) || len(buffers) < 2 {
		return ScalingFit{}, errors.New("horizon: need matching buffer/horizon slices of length >= 2")
	}
	logb := make([]float64, len(buffers))
	logh := make([]float64, len(buffers))
	var ratio numerics.Accumulator
	for i := range buffers {
		if !(buffers[i] > 0) || !(horizons[i] > 0) {
			return ScalingFit{}, fmt.Errorf("horizon: non-positive point (%v, %v)", buffers[i], horizons[i])
		}
		logb[i] = math.Log(buffers[i])
		logh[i] = math.Log(horizons[i])
		ratio.Add(buffers[i] / horizons[i])
	}
	_, slope, err := numerics.LinearFit(logb, logh)
	if err != nil {
		return ScalingFit{}, err
	}
	return ScalingFit{
		Exponent: slope,
		Gamma:    ratio.Sum() / float64(len(buffers)),
	}, nil
}
