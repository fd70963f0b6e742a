package solver

import (
	"context"
	"errors"
	"strconv"
	"time"

	"lrd/internal/obs"
)

// DegradeReason explains why a Result was returned before the convergence
// target was met. An empty reason means the solve ran to completion.
type DegradeReason string

const (
	// DegradedCanceled: the context was canceled mid-solve.
	DegradedCanceled DegradeReason = "canceled"
	// DegradedDeadline: the context deadline (or Config.MaxDuration budget)
	// expired mid-solve.
	DegradedDeadline DegradeReason = "deadline exceeded"
	// DegradedIterations: the Config.MaxIterations budget was exhausted.
	DegradedIterations DegradeReason = "iteration budget exhausted"
	// DegradedStalled: the bounds stopped moving (both snapped bounds moved
	// less than stallTol relative for five steps in a row) at the maximum
	// resolution without reaching the RelGap target.
	DegradedStalled DegradeReason = "bounds stalled at maximum resolution"
)

// Retryable classifies a degradation as transient or terminal for retry
// policies (and any caller deciding whether re-running a cell could help):
//
//   - canceled / deadline exceeded — retryable: the solve was cut short by
//     wall-clock circumstances, not by the problem; a fresh attempt with a
//     fresh budget may converge.
//   - iteration budget exhausted / bounds stalled — terminal: the solve is
//     deterministic, so re-running it reproduces the same degradation and
//     burns the same budget.
//
// The empty reason (no degradation) is terminal: there is nothing to retry.
func (r DegradeReason) Retryable() bool {
	switch r {
	case DegradedCanceled, DegradedDeadline:
		return true
	default:
		return false
	}
}

// RetryableError reports whether a solve error could plausibly vanish on a
// retry. Numeric-watchdog trips (ErrNumeric) qualify: the watchdog exists
// to catch transient corruption (an injected fault, a flipped bit), and the
// iterator state it aborted from is discarded, so a fresh solve starts
// clean. A deterministic numeric bug will simply re-trip the watchdog and
// surface after the bounded attempts run out. Everything else — malformed
// inputs, validation failures — is terminal.
func RetryableError(err error) bool {
	return errors.Is(err, ErrNumeric)
}

func degradeReasonFromContext(err error) DegradeReason {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return DegradedDeadline
	case errors.Is(err, context.Canceled):
		return DegradedCanceled
	case err != nil:
		return DegradeReason(err.Error())
	}
	return ""
}

// SolveContext is Solve with cancellation and deadline support. The context
// is checked between Lindley iterations; on cancellation or deadline expiry
// the solver does not discard its work — by Proposition II.1 the bounds are
// valid at every iteration, so it returns the best-so-far bracketed Result
// with Result.Degraded set and a nil error. Errors are returned only for
// malformed inputs or numeric-watchdog violations (see ErrNumeric).
func SolveContext(ctx context.Context, q Queue, cfg Config) (Result, error) {
	it, err := NewIterator(q, cfg)
	if err != nil {
		return Result{}, err
	}
	return it.solve(ctx)
}

// SolveModelContext is SolveModel with cancellation and deadline support;
// it follows the same degrade-gracefully contract as SolveContext.
func SolveModelContext(ctx context.Context, m Model, cfg Config) (Result, error) {
	it, err := NewModelIterator(m, cfg)
	if err != nil {
		return Result{}, err
	}
	return it.solve(ctx)
}

// solve runs an iterator owned by a Solve* entry point to completion and
// returns its scratch to the pool: nothing can step it afterwards.
func (it *Iterator) solve(ctx context.Context) (Result, error) {
	r, err := it.RunContext(ctx)
	it.release()
	return r, err
}

// RunContext drives the iterate/refine loop to completion, checking ctx
// between Lindley steps. A positive Config.MaxDuration additionally imposes
// a per-solve wall-clock budget on top of any deadline already carried by
// ctx. On cancellation or expiry the current bracket is returned as a
// degraded Result (Converged false, Degraded set, Lower <= Loss <= Upper)
// with a nil error.
func (it *Iterator) RunContext(ctx context.Context) (Result, error) {
	// Correlated tracing: stamp the context's trace id on every TracePoint
	// and bracket the solve in a span. Both are gated so the untraced path
	// (Trace nil, no SpanSink in ctx) stays allocation-free.
	if it.cfg.Trace != nil {
		if tc, ok := obs.TraceFromContext(ctx); ok {
			it.traceID = tc.TraceID
		}
	}
	ctx, finish := obs.StartSpan(ctx, "solver.solve")
	r, err := it.runContext(ctx, (*Iterator).advance)
	it.observeFinish(r, err)
	if obs.Traced(ctx) {
		finish(map[string]string{
			"solve":      strconv.FormatUint(it.id, 10),
			"iterations": strconv.Itoa(it.iterations),
			"bins":       strconv.Itoa(it.bins),
			"degraded":   string(r.Degraded),
		})
	}
	return r, err
}

// observeFinish records the per-solve summary telemetry (outcome counters,
// duration, iteration count, final resolution) and emits the final trace
// point. It runs on every RunContext exit path; with no Recorder and no
// Trace configured it is a pair of nil checks.
func (it *Iterator) observeFinish(r Result, err error) {
	if rec := it.cfg.Recorder; rec != nil {
		rec.Add(obs.MetricSolverSolves, 1)
		rec.Observe(obs.MetricSolverSolveSeconds, time.Since(it.start).Seconds())
		rec.Observe(obs.MetricSolverSolveIterations, float64(it.iterations))
		rec.Observe(obs.MetricSolverFinalBins, float64(it.bins))
		// Numeric errors are counted at the offending Step, not here.
		if err == nil && r.Converged {
			rec.Add(obs.MetricSolverConverged, 1)
		}
		if r.Degraded != "" {
			// Labeled allocates; degradation is a per-solve event, not
			// per-step, so the cost is negligible.
			rec.Add(obs.Labeled(obs.MetricSolverDegraded, "reason", string(r.Degraded)), 1)
		}
		if it.warm {
			rec.Add(obs.MetricSolverWarmSolves, 1)
			if saved := it.seedIters - it.iterations; saved > 0 {
				// The seeding neighbor's iteration count is the natural
				// estimate of what this near-identical cell would have cost
				// cold.
				rec.Add(obs.MetricSolverWarmIterSaved, float64(saved))
			}
		}
	}
	if trace := it.cfg.Trace; trace != nil && err == nil {
		trace(it.tracePoint(true))
	}
}

// runContext is the solve loop: until the stopping rule holds or a budget
// runs out, it runs one iteration by next — advance, which steps or
// attempts a certified jump (jump.go), or Step for the tests' unaccelerated
// reference — then refines once both committed bounds have stalled.
func (it *Iterator) runContext(ctx context.Context, next func(*Iterator) error) (Result, error) {
	if it.cfg.MaxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, it.cfg.MaxDuration)
		defer cancel()
	}
	// Bound values below the roundoff slack are noise; snapping them to zero
	// keeps their jitter from masking stationarity (otherwise a cell whose
	// lower bound hovers around 1e-17 never triggers refinement).
	prevLo, prevHi := it.snap(it.lowerLoss), it.snap(it.upperLoss)
	stall := 0
	for it.iterations < it.cfg.MaxIterations {
		if r, ok := it.converged(); ok {
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			return it.degraded(degradeReasonFromContext(err)), nil
		}
		if err := next(it); err != nil {
			return Result{}, err
		}
		// Stationarity in n at this resolution: both bounds barely moving.
		loMove := relChange(prevLo, it.snap(it.lowerLoss))
		hiMove := relChange(prevHi, it.snap(it.upperLoss))
		prevLo, prevHi = it.snap(it.lowerLoss), it.snap(it.upperLoss)
		if loMove < stallTol && hiMove < stallTol {
			stall++
		} else {
			stall = 0
		}
		if stall >= 5 {
			// Stationary at this resolution: refine, or stop once out of
			// resolution — more steps at MaxBins only move roundoff.
			stall = 0
			if !it.Refine() {
				break
			}
		}
	}
	if r, ok := it.converged(); ok {
		return r, nil
	}
	reason := DegradedStalled
	if it.iterations >= it.cfg.MaxIterations {
		reason = DegradedIterations
	}
	return it.degraded(reason), nil
}

// degraded packages the current bracket as a valid, clearly tagged partial
// result: the loss is the bracket midpoint, Converged is false, and
// Degraded records why the solve stopped early.
func (it *Iterator) degraded(reason DegradeReason) Result {
	r := it.result((it.lowerLoss+it.upperLoss)/2, it.lowerLoss, it.upperLoss, false)
	r.Degraded = reason
	return r
}
