// Package fluid implements the cutoff-correlated modulated fluid traffic
// model of Grossglauser & Bolot (SIGCOMM '96, §II).
//
// The source emits fluid at a piecewise-constant rate: at each arrival of a
// renewal process with truncated-Pareto interarrival times (dist.
// TruncatedPareto, Eq. 6 of the paper) a new rate is drawn i.i.d. from a
// finite marginal distribution (dist.Marginal). The resulting rate process
// {X_t} has autocovariance φ(t) = σ²·Pr{τ_res ≥ t} (Eq. 3), which matches an
// asymptotically second-order self-similar process with Hurst parameter
// H = (3−α)/2 up to the cutoff lag Tc and is exactly zero beyond it.
package fluid

import (
	"errors"
	"fmt"
	"math/rand"

	"lrd/internal/dist"
)

// Source is the paper's traffic model: i.i.d. rates drawn at the epochs of a
// truncated-Pareto renewal process.
type Source struct {
	// Marginal is the fluid rate distribution (Λ, Π).
	Marginal dist.Marginal
	// Interarrival is the epoch-length distribution F_T.
	Interarrival dist.TruncatedPareto
}

// New validates and returns a Source.
func New(marginal dist.Marginal, inter dist.TruncatedPareto) (Source, error) {
	if marginal.Len() == 0 {
		return Source{}, errors.New("fluid: empty marginal")
	}
	if err := inter.Validate(); err != nil {
		return Source{}, err
	}
	return Source{Marginal: marginal, Interarrival: inter}, nil
}

// FromTraceStats builds a Source the way the paper fits its traces (§III):
// the marginal comes from a constant-bin histogram of the trace, the tail
// index is α = 3 − 2H from the estimated Hurst parameter, and θ is set so
// that the untruncated mean interarrival time θ/(α−1) matches the trace's
// mean epoch duration. cutoff is the correlation cutoff lag Tc in seconds
// (math.Inf(1) for the fully self-similar case).
func FromTraceStats(marginal dist.Marginal, hurst, meanEpoch, cutoff float64) (Source, error) {
	if !(hurst > 0.5 && hurst < 1) {
		return Source{}, fmt.Errorf("fluid: Hurst parameter %v outside (0.5, 1)", hurst)
	}
	alpha := dist.AlphaFromHurst(hurst)
	theta, err := dist.CalibrateTheta(alpha, meanEpoch)
	if err != nil {
		return Source{}, err
	}
	return New(marginal, dist.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: cutoff})
}

// WithCutoff returns a copy of s with the interarrival cutoff lag replaced,
// leaving θ and α unchanged. This is the knob swept in the paper's first
// experiment set (Figs. 4, 5, 9).
func (s Source) WithCutoff(cutoff float64) Source {
	s.Interarrival.Cutoff = cutoff
	return s
}

// WithMarginal returns a copy of s with the marginal replaced (used for the
// scaling and superposition transforms of Figs. 10–13).
func (s Source) WithMarginal(m dist.Marginal) Source {
	s.Marginal = m
	return s
}

// MeanRate returns λ̄ = Π Λ 1ᵀ (Eq. 2).
func (s Source) MeanRate() float64 { return s.Marginal.Mean() }

// RateVariance returns σ² = Π Λ² 1ᵀ − λ̄² (Eq. 4).
func (s Source) RateVariance() float64 { return s.Marginal.Variance() }

// Hurst returns the Hurst parameter H = (3−α)/2 of the asymptotic
// self-similar correlation structure obtained as Tc → ∞.
func (s Source) Hurst() float64 { return dist.HurstFromAlpha(s.Interarrival.Alpha) }

// Autocovariance returns φ(t) = σ²·Pr{τ_res ≥ t} (Eqs. 3, 8): the covariance
// of the fluid rate at lag t. It is exactly zero for t ≥ Tc.
func (s Source) Autocovariance(t float64) float64 {
	return s.RateVariance() * s.Interarrival.ResidualCCDF(t)
}

// Autocorrelation returns φ(t)/σ², i.e. the normalized correlation
// Pr{τ_res ≥ t} of Eq. (7).
func (s Source) Autocorrelation(t float64) float64 {
	return s.Interarrival.ResidualCCDF(t)
}

// ServiceRateForUtilization returns the service rate c that loads a queue
// fed by s to the given utilization ρ = λ̄/c.
func (s Source) ServiceRateForUtilization(rho float64) (float64, error) {
	if !(rho > 0 && rho < 1) {
		return 0, fmt.Errorf("fluid: utilization %v outside (0, 1)", rho)
	}
	return s.MeanRate() / rho, nil
}

// Epoch is one piecewise-constant segment of a sample path.
type Epoch struct {
	Duration float64 // segment length T_n (seconds)
	Rate     float64 // fluid rate λ(n) during the segment
}

// GenerateEpochs samples n consecutive renewal epochs of the source.
func (s Source) GenerateEpochs(n int, rng *rand.Rand) []Epoch {
	out := make([]Epoch, n)
	for i := range out {
		out[i] = Epoch{
			Duration: s.Interarrival.Sample(rng),
			Rate:     s.Marginal.Sample(rng),
		}
	}
	return out
}

// String summarizes the source parameters.
func (s Source) String() string {
	return fmt.Sprintf("Source{H: %.3f (α=%.3f), θ: %.4g s, Tc: %.4g s, %v}",
		s.Hurst(), s.Interarrival.Alpha, s.Interarrival.Theta, s.Interarrival.Cutoff, s.Marginal)
}
