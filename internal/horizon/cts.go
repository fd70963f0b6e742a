package horizon

import (
	"errors"
	"fmt"
	"math"

	"lrd/internal/numerics"
	"lrd/internal/solver"
)

// CriticalTimeScale computes the large-deviations analogue of the
// correlation horizon that Ryu & Elwalid derive ("The Importance of
// Long-Range Dependence of VBR Video Traffic in ATM Traffic Engineering",
// SIGCOMM '96), which the paper's §IV discusses as the independent route
// to the same conclusion. For an infinite-buffer queue with service rate c
// fed by a stationary source, the overflow probability at level B is
// governed (in the many-sources/large-buffer regime) by the variance of
// the cumulative arrivals over windows of length t:
//
//	Pr{Q > B} ≈ exp( −inf_t ((c−λ̄)t + B)² / (2·v(t)) )
//
// where v(t) = Var[A(0,t)] is the cumulative-arrival variance. The
// minimizing window t* is the *critical time scale*: correlation at lags
// beyond t* does not influence the overflow estimate. For the paper's
// renewal fluid source, v(t) = 2·σ²·∫₀ᵗ (t−u)·r(u) du with r the
// autocorrelation (Eq. 7), evaluated here by quadrature.
//
// The function returns the critical time scale t* and the associated
// exponent estimate. The search runs over (0, tMax]; pass the queueing
// system and a horizon comfortably beyond the expected t*.
func CriticalTimeScale(m solver.Model, buffer float64, tMax float64) (tStar, exponent float64, err error) {
	if !(buffer > 0) {
		return 0, 0, errors.New("horizon: buffer must be positive")
	}
	if !(tMax > 0) || math.IsInf(tMax, 1) {
		return 0, 0, errors.New("horizon: tMax must be finite and positive")
	}
	drift := m.ServiceRate - m.Marginal.Mean()
	if drift <= 0 {
		return 0, 0, fmt.Errorf("horizon: utilization %v >= 1", m.Utilization())
	}
	sigma2 := m.Marginal.Variance()
	if sigma2 <= 0 {
		return 0, 0, errors.New("horizon: degenerate marginal")
	}
	// Cumulative-arrival variance v(t) = 2σ²∫₀ᵗ (t−u) r(u) du, computed on
	// a shared grid by incremental Simpson-like accumulation. We tabulate
	// I0(t) = ∫ r and I1(t) = ∫ u·r(u) du so v(t) = 2σ²(t·I0(t) − I1(t)).
	const steps = 4096
	dt := tMax / steps
	i0 := make([]float64, steps+1)
	i1 := make([]float64, steps+1)
	var a0, a1 numerics.Accumulator
	prevR := m.Interarrival.ResidualCCDF(0)
	prevU := 0.0
	for k := 1; k <= steps; k++ {
		u := float64(k) * dt
		r := m.Interarrival.ResidualCCDF(u)
		a0.Add(0.5 * (prevR + r) * dt)
		a1.Add(0.5 * (prevU*prevR + u*r) * dt)
		i0[k] = a0.Sum()
		i1[k] = a1.Sum()
		prevR, prevU = r, u
	}
	objective := func(k int) float64 {
		t := float64(k) * dt
		v := 2 * sigma2 * (t*i0[k] - i1[k])
		if v <= 0 {
			return math.Inf(1)
		}
		num := drift*t + buffer
		return num * num / (2 * v)
	}
	bestK, bestVal := 1, objective(1)
	for k := 2; k <= steps; k++ {
		if v := objective(k); v < bestVal {
			bestK, bestVal = k, v
		}
	}
	if bestK == steps {
		return 0, 0, fmt.Errorf("horizon: critical time scale exceeds tMax = %v; increase the horizon", tMax)
	}
	return float64(bestK) * dt, bestVal, nil
}
