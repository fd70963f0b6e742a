package solver

import (
	"errors"
	"fmt"
	"math"
)

// ErrNumeric is the sentinel all numeric-watchdog violations match via
// errors.Is. Use errors.As with *NumericError to inspect the violation
// class and location.
var ErrNumeric = errors.New("solver: numeric invariant violated")

// HealthKind classifies a numeric-watchdog violation.
type HealthKind string

const (
	// HealthNotFinite: a NaN or ±Inf appeared in the occupancy pmfs or the
	// loss bounds.
	HealthNotFinite HealthKind = "not-finite"
	// HealthMassDrift: the probability mass of a convolved occupancy pmf
	// drifted from 1 by more than Config.MassDriftTol before
	// renormalization (roundoff drift is ~1e-15 per step; anything larger
	// indicates corrupted inputs or a broken convolution).
	HealthMassDrift HealthKind = "mass-drift"
	// HealthBoundOrder: the lower loss bound exceeded the upper, violating
	// Proposition II.1's bracket ordering.
	HealthBoundOrder HealthKind = "bound-order"
	// HealthMonotonicity: a bound moved the wrong way between iterations
	// (the lower bound must be non-decreasing and the upper non-increasing
	// in n).
	HealthMonotonicity HealthKind = "monotonicity"
)

// NumericError reports a numeric-health violation detected in the solver
// hot loop. The iterator state is left at the last healthy iteration; the
// offending step is never committed, so callers never observe garbage
// bounds. NumericError matches ErrNumeric under errors.Is.
type NumericError struct {
	Kind      HealthKind
	Iteration int    // Lindley iterations completed when detected
	Bins      int    // resolution M at detection
	Detail    string // human-readable specifics (values involved)
}

func (e *NumericError) Error() string {
	return fmt.Sprintf("solver: numeric invariant violated (%s) at iteration %d, M=%d: %s",
		e.Kind, e.Iteration, e.Bins, e.Detail)
}

// Is makes every NumericError match the ErrNumeric sentinel.
func (e *NumericError) Is(target error) bool { return target == ErrNumeric }

func (it *Iterator) numericErr(kind HealthKind, format string, args ...any) error {
	return &NumericError{Kind: kind, Iteration: it.iterations, Bins: it.bins, Detail: fmt.Sprintf(format, args...)}
}

// Watchdog tolerances. The theoretical invariants hold exactly; these
// margins absorb FFT/summation roundoff (~1e-15 relative per step) with
// three or more orders of magnitude to spare, while real corruption (an
// injected NaN, a lost half of the probability mass, swapped bounds)
// overshoots them by many orders of magnitude.
const (
	boundOrderRelTol = 1e-6
	monotoneRelTol   = 1e-6
	invariantAbsTol  = 1e-12
)

// checkStepHealth validates one proposed Lindley step before it is
// committed: finite mass drifts within tolerance, finite ordered bounds,
// and monotone bound tightening relative to the current (pre-step) bounds.
func (it *Iterator) checkStepHealth(driftL, driftH, newLo, newHi float64) error {
	if math.IsNaN(driftL) || math.IsNaN(driftH) || math.IsInf(driftL, 0) || math.IsInf(driftH, 0) {
		return it.numericErr(HealthNotFinite, "occupancy mass drift not finite (lower %v, upper %v)", driftL, driftH)
	}
	tol := it.cfg.MassDriftTol
	if math.Abs(driftL) > tol || math.Abs(driftH) > tol {
		return it.numericErr(HealthMassDrift, "occupancy mass drifted by (lower %v, upper %v), tolerance %v", driftL, driftH, tol)
	}
	if math.IsNaN(newLo) || math.IsNaN(newHi) || math.IsInf(newLo, 0) || math.IsInf(newHi, 0) {
		return it.numericErr(HealthNotFinite, "loss bounds not finite (lower %v, upper %v)", newLo, newHi)
	}
	if newLo > newHi*(1+boundOrderRelTol)+invariantAbsTol {
		return it.numericErr(HealthBoundOrder, "lower bound %v exceeds upper bound %v", newLo, newHi)
	}
	// Monotone tightening holds from the paper's starts (empty and full are
	// sub- and super-fixed-points of the Lindley map) but not from a seed or
	// a certified upper start: such a vector is a valid stochastic bound,
	// yet its loss may transiently move the "wrong" way while remaining a
	// valid bracket (the bound-order check above still verifies Prop. II.1
	// every step). So each side is checked only from the paper's start.
	if !it.warm && newLo < it.lowerLoss*(1-monotoneRelTol)-invariantAbsTol {
		return it.numericErr(HealthMonotonicity, "lower bound decreased %v -> %v", it.lowerLoss, newLo)
	}
	if !it.warm && !it.certified && newHi > it.upperLoss*(1+monotoneRelTol)+invariantAbsTol {
		return it.numericErr(HealthMonotonicity, "upper bound increased %v -> %v", it.upperLoss, newHi)
	}
	return nil
}

// validatePMF checks a freshly built increment pmf for finite entries and
// near-unit mass; it guards model construction against corrupted
// distribution inputs.
func (it *Iterator) validatePMF(name string, w []float64, massTol float64) error {
	var sum float64
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return it.numericErr(HealthNotFinite, "%s pmf contains a non-finite entry", name)
		}
		sum += v
	}
	if math.Abs(sum-1) > massTol {
		return it.numericErr(HealthMassDrift, "%s pmf mass %v, want 1 within %v", name, sum, massTol)
	}
	return nil
}
