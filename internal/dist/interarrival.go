package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lrd/internal/numerics"
)

// Interarrival is the contract of an epoch-length law: exactly the methods
// the solver, the horizon and Markovian-fit analyses and the sample-path
// generator call, so no caller probes a law for more. The paper's procedure
// "can be used independent of the particular model" (§IV); this interface
// is that independence. A law is a distribution on [0, ∞) with finite
// mean, described by:
//
//   - TailFunc() = t ↦ (Pr{T > t}, Pr{T >= t}, ∫_t^∞ Pr{T > s} ds), the
//     two ccdfs (which differ only at atoms) behind the work-increment cdfs
//     and the partial mean behind the closed-form per-state expected loss
//     E[W_l|Q=x], from one evaluation of the law, with its constants
//     hoisted out of the per-point evaluation
//   - Mean() = E[T], the partial mean at 0
//   - SecondMoment() = E[T²] (math.Inf(1) where it diverges)
//   - Upper() = essential supremum of T (math.Inf(1) if unbounded)
//   - ResidualCCDF(t) = Pr{τ_res >= t} for the stationary residual life,
//     which by Eq. (3) is the modulated rate's autocorrelation
//   - Sample draws T; SampleResidual draws τ_res, a stationary start
//   - Validate reports whether the parameters define a proper law
//
// TruncatedPareto and Hyperexponential keep CCDF, CCDFAtLeast and
// IntegralCCDF as concrete methods. Hyperexponential's TailFunc is bitwise
// equal to them; TruncatedPareto's evaluates the power law as exp∘log
// rather than math.Pow and agrees with them to a few ulps.
type Interarrival interface {
	TailFunc() func(t float64) (gt, ge, integral float64)
	Mean() float64
	SecondMoment() float64
	Upper() float64
	ResidualCCDF(t float64) float64
	Sample(rng *rand.Rand) float64
	SampleResidual(rng *rand.Rand) float64
	Validate() error
}

// CCDFAtLeast returns Pr{T >= t}, accounting for the atom at the cutoff.
func (p TruncatedPareto) CCDFAtLeast(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t < p.Cutoff {
		return p.CCDF(t) // continuous below the cutoff
	}
	if t == p.Cutoff {
		return p.AtomMass()
	}
	return 0
}

// IntegralCCDF returns ∫_a^∞ Pr{T > t} dt in closed form:
//
//	θ/(α−1) · [ ((a+θ)/θ)^(1−α) − ((Tc+θ)/θ)^(1−α) ]   for a < Tc
//
// and 0 for a >= Tc. IntegralCCDF(0) equals Mean() (Eq. 25).
func (p TruncatedPareto) IntegralCCDF(a float64) float64 {
	if a < 0 {
		a = 0
	}
	if a >= p.Cutoff {
		return 0
	}
	head := math.Pow((a+p.Theta)/p.Theta, 1-p.Alpha)
	tail := 0.0
	if !math.IsInf(p.Cutoff, 1) {
		tail = math.Pow((p.Cutoff+p.Theta)/p.Theta, 1-p.Alpha)
	}
	return p.Theta / (p.Alpha - 1) * (head - tail)
}

// TailFunc returns t ↦ (Pr{T > t}, Pr{T >= t}, IntegralCCDF(t)) with the
// law's constants (the cutoff's tail term, the θ/(α−1) scale and the atom)
// hoisted out of the per-point evaluation. Below the cutoff one power-law
// evaluation v = u^(−α), u = (t+θ)/θ, serves all three, and u·v is the
// integral's u^(1−α). The power is exp(−α·log u), about half the cost of
// math.Pow; each value is within a few ε·(1 + α·log u) relative of CCDF,
// CCDFAtLeast and IntegralCCDF, and exact at t <= 0, at the cutoff and
// beyond it.
func (p TruncatedPareto) TailFunc() func(t float64) (gt, ge, integral float64) {
	theta, alpha, cutoff := p.Theta, p.Alpha, p.Cutoff
	tail := 0.0
	if !math.IsInf(cutoff, 1) {
		tail = math.Pow((cutoff+theta)/theta, 1-alpha)
	}
	scale := theta / (alpha - 1)
	atom := p.AtomMass()
	return func(t float64) (gt, ge, integral float64) {
		switch {
		case t <= 0:
			return 1, 1, scale * (1 - tail)
		case t < cutoff:
			u := (t + theta) / theta
			v := math.Exp(-alpha * math.Log(u))
			return v, v, scale * (u*v - tail)
		case t == cutoff:
			return 0, atom, 0
		default:
			return 0, 0, 0
		}
	}
}

// Upper returns the essential supremum of T, i.e. the cutoff lag.
func (p TruncatedPareto) Upper() float64 { return p.Cutoff }

// Hyperexponential is a mixture of exponential distributions:
//
//	Pr{T > t} = Σ_k Weights[k]·exp(−t/Scales[k])
//
// It is the phase-type (hence Markovian) interarrival law whose
// renewal-modulated fluid source has autocorrelation
// Σ_k w_k·exp(−t/τ_k) with w_k ∝ Weights[k]·Scales[k] — the classical
// "sum of exponentials" approximation to power-law correlation discussed
// in §IV of the paper (Markov models capturing correlation up to the
// correlation horizon).
type Hyperexponential struct {
	Weights []float64 // mixture probabilities, non-negative, sum to 1
	Scales  []float64 // per-component means τ_k > 0
}

// NewHyperexponential validates and returns the mixture; weights are
// renormalized to sum to exactly one.
func NewHyperexponential(weights, scales []float64) (Hyperexponential, error) {
	if len(weights) != len(scales) || len(weights) == 0 {
		return Hyperexponential{}, errors.New("dist: hyperexponential needs matching non-empty weights and scales")
	}
	w := append([]float64(nil), weights...)
	s := append([]float64(nil), scales...)
	var total float64
	for i := range w {
		if w[i] < 0 || math.IsNaN(w[i]) {
			return Hyperexponential{}, fmt.Errorf("dist: weight %v invalid", w[i])
		}
		if !(s[i] > 0) || math.IsInf(s[i], 1) {
			return Hyperexponential{}, fmt.Errorf("dist: scale %v invalid", s[i])
		}
		total += w[i]
	}
	if total <= 0 {
		return Hyperexponential{}, errors.New("dist: hyperexponential weights sum to zero")
	}
	for i := range w {
		w[i] /= total
	}
	return Hyperexponential{Weights: w, Scales: s}, nil
}

// Validate reports whether the mixture is well formed.
func (h Hyperexponential) Validate() error {
	if len(h.Weights) != len(h.Scales) || len(h.Weights) == 0 {
		return errors.New("dist: hyperexponential needs matching non-empty weights and scales")
	}
	var total float64
	for i := range h.Weights {
		if h.Weights[i] < 0 || math.IsNaN(h.Weights[i]) {
			return fmt.Errorf("dist: weight %v invalid", h.Weights[i])
		}
		if !(h.Scales[i] > 0) || math.IsInf(h.Scales[i], 1) {
			return fmt.Errorf("dist: scale %v invalid", h.Scales[i])
		}
		total += h.Weights[i]
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("dist: hyperexponential weights sum to %v, want 1", total)
	}
	return nil
}

// CCDF returns Pr{T > t}.
func (h Hyperexponential) CCDF(t float64) float64 {
	if t < 0 {
		return 1
	}
	var acc numerics.Accumulator
	for i := range h.Weights {
		acc.Add(h.Weights[i] * math.Exp(-t/h.Scales[i]))
	}
	return numerics.Clamp(acc.Sum(), 0, 1)
}

// CCDFAtLeast returns Pr{T >= t}; the law is continuous, so it equals CCDF
// except at t = 0.
func (h Hyperexponential) CCDFAtLeast(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return h.CCDF(t)
}

// CDF returns Pr{T <= t}.
func (h Hyperexponential) CDF(t float64) float64 { return 1 - h.CCDF(t) }

// IntegralCCDF returns ∫_a^∞ Pr{T > t} dt = Σ_k w_k·τ_k·exp(−a/τ_k).
func (h Hyperexponential) IntegralCCDF(a float64) float64 {
	if a < 0 {
		a = 0
	}
	var acc numerics.Accumulator
	for i := range h.Weights {
		acc.Add(h.Weights[i] * h.Scales[i] * math.Exp(-a/h.Scales[i]))
	}
	return acc.Sum()
}

// TailFunc returns t ↦ (CCDF(t), CCDFAtLeast(t), IntegralCCDF(t)) with
// the per-mode w_k·τ_k products precomputed: one exponential per mode
// feeds both compensated sums. Bitwise equal to the three methods.
func (h Hyperexponential) TailFunc() func(t float64) (gt, ge, integral float64) {
	ws := make([]float64, len(h.Weights))
	for i := range h.Weights {
		ws[i] = h.Weights[i] * h.Scales[i]
	}
	return func(t float64) (gt, ge, integral float64) {
		a := t
		if a < 0 {
			a = 0
		}
		var accC, accI numerics.Accumulator
		for i := range ws {
			e := math.Exp(-a / h.Scales[i])
			accC.Add(h.Weights[i] * e)
			accI.Add(ws[i] * e)
		}
		gt = numerics.Clamp(accC.Sum(), 0, 1)
		switch {
		case t < 0:
			return 1, 1, accI.Sum()
		case t == 0:
			return gt, 1, accI.Sum()
		}
		return gt, gt, accI.Sum()
	}
}

// Mean returns E[T] = Σ_k w_k·τ_k.
func (h Hyperexponential) Mean() float64 { return h.IntegralCCDF(0) }

// SecondMoment returns E[T²] = Σ_k 2·w_k·τ_k².
func (h Hyperexponential) SecondMoment() float64 {
	var acc numerics.Accumulator
	for i := range h.Weights {
		acc.Add(2 * h.Weights[i] * h.Scales[i] * h.Scales[i])
	}
	return acc.Sum()
}

// Variance returns Var[T].
func (h Hyperexponential) Variance() float64 {
	m := h.Mean()
	return h.SecondMoment() - m*m
}

// Upper returns +Inf: exponential mixtures are unbounded.
func (h Hyperexponential) Upper() float64 { return math.Inf(1) }

// Sample draws one interarrival time: pick a component by weight, then an
// exponential of that scale.
func (h Hyperexponential) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	var acc float64
	for i := range h.Weights {
		acc += h.Weights[i]
		if u <= acc {
			return rng.ExpFloat64() * h.Scales[i]
		}
	}
	return rng.ExpFloat64() * h.Scales[len(h.Scales)-1]
}

// SampleResidual draws from the stationary residual-life distribution of
// the mixture: the residual density CCDF(t)/Mean() is itself a mixture of
// the component exponentials (each memoryless) reweighted by w_k·τ_k —
// longer components are overrepresented at a stationary instant
// (length-biased sampling), but within a component the residual is again
// Exp(τ_k).
func (h Hyperexponential) SampleResidual(rng *rand.Rand) float64 {
	u := rng.Float64() * h.Mean()
	var acc float64
	for i := range h.Weights {
		acc += h.Weights[i] * h.Scales[i]
		if u <= acc {
			return rng.ExpFloat64() * h.Scales[i]
		}
	}
	return rng.ExpFloat64() * h.Scales[len(h.Scales)-1]
}

// ResidualCCDF returns Pr{τ_res >= t} = IntegralCCDF(t)/Mean() — by Eq. (3)
// of the paper this is the autocorrelation of the fluid rate process
// modulated by this law: a convex sum of exponentials with weights
// w_k·τ_k/Σ w_j·τ_j.
func (h Hyperexponential) ResidualCCDF(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return h.IntegralCCDF(t) / h.Mean()
}

// String summarizes the mixture, components sorted by scale.
func (h Hyperexponential) String() string {
	idx := make([]int, len(h.Scales))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.Scales[idx[a]] < h.Scales[idx[b]] })
	s := "Hyperexponential{"
	for n, i := range idx {
		if n > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3g@%.3gs", h.Weights[i], h.Scales[i])
	}
	return s + "}"
}

// Compile-time checks that both laws satisfy the contract.
var (
	_ Interarrival = TruncatedPareto{}
	_ Interarrival = Hyperexponential{}
)
