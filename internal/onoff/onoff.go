// Package onoff implements the superposition of on/off sources with
// heavy-tailed activity periods — the construction of Willinger, Taqqu,
// Sherman & Wilson (reference [36] of the paper) that the paper cites as
// the physical explanation of long-range dependence in network traffic:
// "the superposition of many on/off sources with heavy-tailed on- and
// off-periods results in aggregate traffic with LRD", with Hurst parameter
// H = (3 − α_min)/2 where α_min is the heavier of the two period tail
// indices.
//
// The package generates binned aggregate-rate traces directly usable by
// the sim and lrdest packages, providing a second, mechanistically
// grounded LRD trace source next to the Gaussian-copula FGN synthesis in
// package traces.
package onoff

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lrd/internal/dist"
	"lrd/internal/traces"
)

// SourceParams describes one on/off source. On- and off-period lengths are
// Pareto with tail indices AlphaOn/AlphaOff and the given means; the
// source emits PeakRate while on and nothing while off.
type SourceParams struct {
	PeakRate float64 // rate while on (work units/s)
	MeanOn   float64 // mean on-period duration (s)
	MeanOff  float64 // mean off-period duration (s)
	AlphaOn  float64 // on-period tail index, 1 < α <= 2 for LRD
	AlphaOff float64 // off-period tail index
}

// Validate reports whether the parameters are usable.
func (p SourceParams) Validate() error {
	if !(p.PeakRate > 0) || !(p.MeanOn > 0) || !(p.MeanOff > 0) {
		return errors.New("onoff: peak rate and mean periods must be positive")
	}
	if !(p.AlphaOn > 1) || !(p.AlphaOff > 1) {
		return fmt.Errorf("onoff: tail indices must exceed 1 for finite means (got %v, %v)", p.AlphaOn, p.AlphaOff)
	}
	return nil
}

// MeanRate returns the long-run average rate PeakRate·MeanOn/(MeanOn+MeanOff).
func (p SourceParams) MeanRate() float64 {
	return p.PeakRate * p.MeanOn / (p.MeanOn + p.MeanOff)
}

// Hurst returns the Hurst parameter of the aggregate of many such sources:
// H = (3 − min(AlphaOn, AlphaOff))/2 (Willinger et al.).
func (p SourceParams) Hurst() float64 {
	return (3 - math.Min(p.AlphaOn, p.AlphaOff)) / 2
}

// pareto draws a Pareto variate with the given mean and tail index α:
// scale = mean·(α−1)/α, density α·scale^α/x^(α+1) on [scale, ∞).
func pareto(mean, alpha float64, rng *rand.Rand) float64 {
	scale := mean * (alpha - 1) / alpha
	return scale * math.Pow(rng.Float64(), -1/alpha)
}

// Aggregate generates a binned rate trace of the superposition of n
// independent sources with the given parameters over nbins bins of width
// binWidth seconds. Each source starts in a uniformly random phase state
// (on or off by stationary probability) with a fresh period to reduce the
// startup transient.
func Aggregate(p SourceParams, n, nbins int, binWidth float64, rng *rand.Rand) (traces.Trace, error) {
	if err := p.Validate(); err != nil {
		return traces.Trace{}, err
	}
	if n <= 0 || nbins <= 0 || !(binWidth > 0) {
		return traces.Trace{}, errors.New("onoff: need positive source count, bins, and bin width")
	}
	work := make([]float64, nbins)
	horizon := float64(nbins) * binWidth
	pOn := p.MeanOn / (p.MeanOn + p.MeanOff)
	for s := 0; s < n; s++ {
		t := 0.0
		on := rng.Float64() < pOn
		for t < horizon {
			var d float64
			if on {
				d = pareto(p.MeanOn, p.AlphaOn, rng)
			} else {
				d = pareto(p.MeanOff, p.AlphaOff, rng)
			}
			if on {
				// Deposit PeakRate·(covered length) into the bins.
				end := math.Min(t+d, horizon)
				for seg := t; seg < end; {
					bin := int(seg / binWidth)
					if bin >= nbins {
						break
					}
					binEnd := math.Min(float64(bin+1)*binWidth, end)
					if binEnd <= seg {
						// Floating-point stall guard; see source.GenerateBinned.
						binEnd = math.Nextafter(seg, math.Inf(1))
					}
					work[bin] += p.PeakRate * (binEnd - seg)
					seg = binEnd
				}
			}
			t += d
			on = !on
		}
	}
	for i := range work {
		work[i] /= binWidth
	}
	return traces.Trace{
		Name:     fmt.Sprintf("onoff-n%d", n),
		Rates:    work,
		BinWidth: binWidth,
	}, nil
}

// FitSource builds the paper's renewal fluid model for a *single* on/off
// source with identically distributed on and off periods: the special case
// the paper notes its model contains ("this model can be specialized into
// the familiar on/off source model with identically distributed on and off
// periods"). The marginal is {0, peak} with equal probability and the
// epoch law is the truncated Pareto with the given parameters.
func FitSource(peak, theta, alpha, cutoff float64) (dist.Marginal, dist.TruncatedPareto, error) {
	if !(peak > 0) {
		return dist.Marginal{}, dist.TruncatedPareto{}, errors.New("onoff: peak rate must be positive")
	}
	iv := dist.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: cutoff}
	if err := iv.Validate(); err != nil {
		return dist.Marginal{}, dist.TruncatedPareto{}, err
	}
	m, err := dist.NewMarginal([]float64{0, peak}, []float64{0.5, 0.5})
	if err != nil {
		return dist.Marginal{}, dist.TruncatedPareto{}, err
	}
	return m, iv, nil
}
