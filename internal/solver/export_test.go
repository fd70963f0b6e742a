package solver

import (
	"context"
	"testing"
)

// Hooks for the external tests (package solver_test), which import
// packages that import this one (the source registry, internal/core).
var CertifyTheta = certifyTheta

// StartTheta is the θ of m's cold upper start under cfg (0: full start).
func StartTheta(m Model, cfg Config) float64 { return startTheta(m, cfg.withDefaults()) }

// Slack is the absolute roundoff slack brackets are compared within.
func Slack(cfg Config) float64 { return cfg.withDefaults().slack() }

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

// SolvePaperStart solves m from the paper's start: the ladder from
// InitialBins, the lower process empty and the upper one full.
func SolvePaperStart(ctx context.Context, m Model, cfg Config) (Result, error) {
	it, err := newPaperStartIterator(m, cfg)
	if err != nil {
		return Result{}, err
	}
	return it.solve(ctx)
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
	it.lowerLoss = it.lossOf(it.ql)
	it.upperLoss = it.lossOf(it.qh)
	return it, nil
}
