package solver

import (
	"context"
	"slices"
	"testing"
)

// Hooks for the external tests (package solver_test), which import
// packages that import this one (the source registry, internal/core).
var CertifyTheta = certifyTheta

// StartTheta is the θ of m's cold upper start (0: full start).
var StartTheta = startTheta

// Slack is the absolute roundoff slack brackets are compared within.
const Slack = slack

// GoldenCase is one solver-golden model and configuration.
type GoldenCase struct {
	Name  string
	Model Model
	Cfg   Config
}

// GoldenCases lists the solver-golden cases in their pinned order.
func GoldenCases(t testing.TB) []GoldenCase {
	var out []GoldenCase
	for _, c := range goldenCases(t) {
		out = append(out, GoldenCase{c.name, c.m, c.cfg})
	}
	return out
}

// SolvePaperStart solves m from the paper's start, unaccelerated: the
// ladder from InitialBins, the lower process empty and the upper one full,
// and plain steps under runContext's stop and refine rules.
func SolvePaperStart(ctx context.Context, m Model, cfg Config) (Result, error) {
	it, err := newPaperStartIterator(m, cfg)
	if err != nil {
		return Result{}, err
	}
	defer it.release()
	return it.runContext(ctx, (*Iterator).Step)
}

// newPaperStartIterator builds m's iterator at InitialBins with the
// paper's start: the lower process empty and the upper one full, so both
// bounds move monotonically and the upper one is the raw iterate.
func newPaperStartIterator(m Model, cfg Config) (*Iterator, error) {
	it, err := newIterator(m, cfg, cfg.withDefaults().InitialBins)
	if err != nil {
		return nil, err
	}
	it.ql[0] = 1
	it.qh[it.bins] = 1
	it.lowerLoss, it.upperLoss = it.lossOf(it.ql, it.qh, 1, 1)
	return it, nil
}

// DenseCertified checks a jump candidate against an independent dense step
// (see denseCertified).
var DenseCertified = denseCertified

// JumpCheck is one bound process's part in a jump attempt that had a
// candidate for it.
type JumpCheck struct {
	Upper    bool
	Accepted bool
	Bins     int
	// Candidate is the candidate pmf q*, and Increment the process's
	// rounded increment pmf, index l ↦ w(l−M).
	Candidate, Increment []float64
	// Before and After are the process's iterate before and after the
	// attempt.
	Before, After []float64
}

// SolveWatchingJumps solves m cold as SolveModelContext does, under
// runContext and advance, and passes each process's part in every jump
// attempt that had a candidate for it to watch.
func SolveWatchingJumps(m Model, cfg Config, watch func(JumpCheck)) (Result, error) {
	it, err := NewModelIterator(m, cfg)
	if err != nil {
		return Result{}, err
	}
	defer it.release()
	return it.runContext(context.Background(), func(it *Iterator) error {
		if it.plain < jumpHistory {
			return it.advance()
		}
		beforeL, beforeH := slices.Clone(it.ql), slices.Clone(it.qh)
		lower, upper, err := it.jump()
		switch {
		case err != nil:
			return err
		case lower == jumpNone && upper == jumpNone:
			return it.advance()
		}
		for _, p := range []struct {
			o             jumpOutcome
			upper         bool
			cand, w       []float64
			before, after []float64
		}{
			{lower, false, it.jumpL.cand, it.wl, beforeL, it.ql},
			{upper, true, it.jumpH.cand, it.wh, beforeH, it.qh},
		} {
			if p.o != jumpNone {
				watch(JumpCheck{p.upper, p.o == jumpAccepted, it.bins,
					slices.Clone(p.cand), slices.Clone(p.w), p.before, slices.Clone(p.after)})
			}
		}
		return nil
	})
}
