package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lrd"
)

// provisionScenario is one inverse question of the provision pack; nominal
// is its SLO before the seed scales it.
type provisionScenario struct {
	name    string
	hurst   float64
	cutoff  float64
	nominal float64
	opts    lrd.ProvisionOptions
}

// sloFactors holds, per scenario, the factors a pass may scale its SLO
// by. Where an SLO sits decides how long a provision takes, because the
// probes whose brackets straddle the SLO are re-solved at tighter gaps:
// across [0.97, 1.03] scenario A takes 2.2 to 8.8 s. The factors are
// those of 25 evenly spaced in [0.97, 1.03] at which the answer's solver
// work — the resolution M summed over every Lindley step of every forward
// solve, a deterministic count — is within 10% of its work at factor 1,
// so every pass asks new questions of about the same cost.
var sloFactors = map[string][]float64{
	"A": {0.97, 0.975, 0.98, 0.985, 0.99, 0.995, 1, 1.01, 1.0275},
	"B": {0.975, 0.9775, 0.9825, 0.985, 0.9925, 1, 1.01, 1.015, 1.0175, 1.02, 1.025, 1.0275},
	"C": {0.97, 0.9725, 0.975, 0.9775, 0.98, 0.9825, 0.985, 0.9875, 0.99, 0.9925, 0.995, 0.9975, 1,
		1.0025, 1.005, 1.0075, 1.01, 1.0125, 1.015, 1.0175, 1.02, 1.0225, 1.025, 1.0275, 1.03},
	"D": {0.9925, 0.995, 0.9975, 1, 1.0025, 1.005, 1.0075},
}

// provisionPack is the pack's four questions, each over the on/off
// marginal 0:0.5,2:0.5 with a 50 ms mean epoch and a 1 s cutoff, with the
// SLOs left for drawSLOs to set.
func provisionPack() []provisionScenario {
	return []provisionScenario{
		{"A", 0.8, 1, 0.05, lrd.ProvisionOptions{Util: 0.8, Max: 2}},
		{"B", 0.7, 1, 0.01, lrd.ProvisionOptions{Util: 0.6, Max: 2}},
		{"C", 0.9, 1, 0.05, lrd.ProvisionOptions{Util: 0.7, Max: 2}},
		{"D", 0.8, 1, 0.05, lrd.ProvisionOptions{Target: lrd.ProvisionTargetService, Buffer: 0.5}},
	}
}

// drawSLOs sets the SLOs of one pass over the pack: each scenario's
// nominal SLO scaled by a factor drawn from its set in sloFactors. A run
// draws anew for every pass from one generator seeded by the run's seed,
// so the seed fixes the run's questions and a run averages over several
// SLOs per scenario.
func drawSLOs(pack []provisionScenario, rng *rand.Rand) {
	for i := range pack {
		fs := sloFactors[pack[i].name]
		pack[i].opts.SLO = pack[i].nominal * fs[rng.Intn(len(fs))]
	}
}

// onOffSource is the fluid source the provision pack and the solver
// probes use: the on/off marginal 0:0.5,2:0.5 with a 50 ms mean epoch.
func onOffSource(hurst, cutoff float64) (lrd.Source, error) {
	m, err := lrd.NewMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	if err != nil {
		return lrd.Source{}, err
	}
	alpha := lrd.AlphaFromHurst(hurst)
	theta, err := lrd.CalibrateTheta(alpha, 0.05)
	if err != nil {
		return lrd.Source{}, err
	}
	return lrd.NewSource(m, lrd.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: cutoff})
}

// checkProvision checks an answer against its proof: the loss bound at
// Value meets the SLO, the bound at Bracket misses it, and Bracket lies
// on the infeasible side of Value.
func checkProvision(p lrd.Provisioned, slo float64) error {
	switch {
	case !(p.Loss <= slo):
		return fmt.Errorf("loss bound %g at value %g exceeds the SLO %g", p.Loss, p.Value, slo)
	case !(slo < p.BracketLoss):
		return fmt.Errorf("bracket loss %g at %g does not exceed the SLO %g", p.BracketLoss, p.Bracket, slo)
	case !(p.Bracket < p.Value):
		return fmt.Errorf("bracket %g is not below the value %g", p.Bracket, p.Value)
	}
	return nil
}

// runProvision is the provision-pack workload: one caller answering
// inverse questions, each a chain of warm-started forward solves at large
// resolutions.
func runProvision(j *job) error {
	pack := provisionPack()
	if j.smoke {
		pack = pack[1:2]
	}
	warm := 0 // the cheap scenario B, first in the smoke pack too
	if !j.smoke {
		warm = 1
	}
	// The warm-up asks B at its nominal SLO, so that set-up does the same
	// work whatever the seed.
	warmOpts := pack[warm].opts
	warmOpts.SLO = pack[warm].nominal
	ctx := context.Background()
	srcs := make([]lrd.TrafficSource, len(pack))

	var tracker *solveTracker
	if j.tr != nil {
		tracker = newSolveTracker(j.tr)
	}
	rng := rand.New(rand.NewSource(j.seed))
	var answers, solves, warmSolves int
	for start := time.Now(); j.measuring(start); {
		// Set-up: build the pack's sources and answer one untimed warm-up
		// question.
		err := j.setup(func() error {
			for i, s := range pack {
				src, err := onOffSource(s.hurst, s.cutoff)
				if err != nil {
					return err
				}
				srcs[i] = lrd.NewFluidSource(src)
			}
			_, err := lrd.Provision(ctx, srcs[warm], warmOpts)
			return err
		})
		if err != nil {
			return err
		}
		drawSLOs(pack, rng)
		j.measure(len(pack), func() {
			for i, s := range pack {
				opts := s.opts
				if tracker != nil {
					opts.Solver.Trace = tracker.hook
				}
				a0 := time.Now()
				p, err := lrd.Provision(ctx, srcs[i], opts)
				a1 := time.Now()
				j.res.Attempted++
				if err != nil {
					j.fail("scenario %s: %v", s.name, err)
					continue
				}
				if err := checkProvision(p, opts.SLO); err != nil {
					j.fail("scenario %s: %v", s.name, err)
				}
				answers++
				solves += p.Solves
				warmSolves += p.WarmSolves
				j.tr.add("answer", 0, a0, a1, map[string]any{"scenario": s.name, "slo": opts.SLO, "solves": p.Solves})
			}
		})
	}
	j.fact("solves_per_answer", float64(solves)/float64(max(answers, 1)))
	j.fact("warm_ratio", float64(warmSolves)/float64(max(solves, 1)))
	if j.tr == nil {
		return nil
	}

	answerSpans, solveSpans := j.tr.named("answer"), j.tr.named("solve")
	assign(solveSpans, answerSpans, false)
	j.tr.setParents(solveSpans)
	bySolveParent := map[int][]span{}
	var solveMs []float64
	for _, s := range solveSpans {
		bySolveParent[s.Parent] = append(bySolveParent[s.Parent], s)
		solveMs = append(solveMs, s.dur()*1e3)
	}
	var selfMs []float64
	for _, a := range answerSpans {
		selfMs = append(selfMs, selfTime(a, bySolveParent[a.ID])*1e3)
	}
	j.layer("core.provision.solves_per_answer", j.res.Facts["solves_per_answer"])
	j.layer("core.provision.warm_ratio", j.res.Facts["warm_ratio"])
	j.layer("core.provision.forward_solve_ms", mean(solveMs))
	j.layer("core.provision.residual_ms", mean(selfMs))
	j.res.Residuals = []residualRow{
		residual("answer", "forward solve", answerSpans, solveSpans),
		stepRow(solveSpans),
	}
	return nil
}
