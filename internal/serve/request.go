package serve

import (
	"fmt"
	"math"
	"strconv"

	"lrd/internal/api"
	"lrd/internal/fluid"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// solveJob is a validated, realized request: the model to solve and the
// canonical cache key that identifies its result.
type solveJob struct {
	model solver.Model
	key   string
}

// buildSolve validates the request and builds its model through the wire
// contract's own rules (api.SolveRequest.Source and Queue), then computes
// the canonical cache key. Every error is a client error (HTTP 400).
func buildSolve(r *api.SolveRequest, base solver.Config) (solveJob, error) {
	ref, src, err := r.Source()
	if err != nil {
		return solveJob{}, err
	}
	mdl, err := r.Queue(src)
	if err != nil {
		return solveJob{}, err
	}
	return solveJob{model: mdl, key: cacheKey(ref, mdl, r.Model, solverConfig(r, base))}, nil
}

// solverConfig merges the request's overrides onto the server defaults.
// The per-request budget is applied by the serving loop, not here, so the
// returned config is budget-free and safe to hash into the cache key.
func solverConfig(r *api.SolveRequest, base solver.Config) solver.Config {
	if r.Solver.RelGap > 0 {
		base.RelGap = r.Solver.RelGap
	}
	if r.Solver.MaxBins > 0 {
		base.MaxBins = r.Solver.MaxBins
	}
	base.MaxDuration = 0
	return base
}

// cacheKey builds the canonical identity of a solve: every numeric input is
// resolved first (hurst→alpha, epoch→theta, util→service rate) and printed
// in shortest round-trippable form, so two requests that describe the same
// queue through different parameterizations share one key. The solver
// configuration enters through solver.ConfigHash with its wall-clock budget
// zeroed — budgets shape latency, not the converged answer, and converged
// results are the only ones cached.
func cacheKey(ref fluid.Source, mdl solver.Model, spec source.Spec, cfg solver.Config) string {
	p := ref.Interarrival
	return fmt.Sprintf("v1|mg=%s|a=%s|th=%s|tc=%s|c=%s|B=%s|model=%s|cfg=%s",
		source.FormatMarginal(ref.Marginal), gfmt(p.Alpha), gfmt(p.Theta), gfmt(p.Cutoff),
		gfmt(mdl.ServiceRate), gfmt(mdl.Buffer),
		spec.Key(), solver.ConfigHash(cfg))
}

// gfmt formats a float in shortest round-trippable form (inf-safe), the
// same convention the sweep journal keys use.
func gfmt(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
