package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// Provision targets: the dimension the inverse solve provisions.
const (
	// TargetBuffer finds the minimal normalized buffer (seconds) whose loss
	// meets the SLO at a fixed utilization or service rate.
	TargetBuffer = "buffer"
	// TargetService finds the minimal service rate whose loss meets the SLO
	// at a fixed normalized buffer.
	TargetService = "service"
)

// Default search brackets and stopping parameters for Provision.
const (
	// DefaultMinBuffer / DefaultMaxBuffer bound the buffer search in
	// normalized-buffer seconds: from a millisecond of buffering to about
	// three hours, beyond which a queue that still misses its SLO is
	// operating in a regime the fluid model has nothing useful to say about.
	DefaultMinBuffer = 1e-3
	DefaultMaxBuffer = 1e4
	// DefaultMinUtil / DefaultMaxUtil bound the service search, expressed in
	// utilization: the minimal service rate is found by pushing utilization
	// as high as the SLO allows.
	DefaultMinUtil = 0.01
	DefaultMaxUtil = 0.999
	// DefaultProvisionTol is the relative bracket width at which the
	// bisection stops: the answer is within 1% of minimal.
	DefaultProvisionTol = 0.01
	// DefaultMaxProvisionSolves caps the forward solves one inverse solve
	// may spend. The log-scale bisection needs ~15 at the default
	// tolerance; the cap is a hard guarantee that an inverse solve
	// terminates no matter the inputs.
	DefaultMaxProvisionSolves = 64
)

// ProvisionOptions configures an inverse solve over one realized source.
type ProvisionOptions struct {
	// Target is TargetBuffer (default) or TargetService.
	Target string
	// SLO is the target loss rate in (0, 1). Required.
	SLO float64
	// Util fixes the utilization for the buffer target (exclusive with
	// Service); for the service target it is ignored.
	Util float64
	// Service fixes the service rate for the buffer target (alternative to
	// Util).
	Service float64
	// Buffer fixes the normalized buffer (seconds) for the service target.
	Buffer float64
	// Min and Max override the search bracket: normalized-buffer seconds
	// for TargetBuffer, utilization in (0, 1) for TargetService. Zero means
	// the default.
	Min, Max float64
	// Tol is the relative bracket width at which bisection stops (default
	// DefaultProvisionTol).
	Tol float64
	// MaxSolves caps the probes, one forward solve each (default
	// DefaultMaxProvisionSolves).
	MaxSolves int
	// Solver configures the forward solves. Provision threads warm-start
	// seeds through the buffer chain.
	Solver solver.Config
}

// Provisioned is a successful inverse solve: the minimal feasible value
// with the proven loss bound that certifies it, plus the largest infeasible
// value probed. Feasibility is classified on proven solver bounds, not
// midpoints: at Value the solve's upper bound cleared the SLO, so the true
// loss there provably meets it and any independent forward solve of Value
// brackets a loss at or below the SLO; at Bracket the proof failed, either
// because the lower bound proved the SLO missed or because the bounds
// still straddled it at the probe gap floor.
type Provisioned struct {
	Target string
	// Value is the answer: minimal normalized buffer (seconds), or minimal
	// service rate (work units/s).
	Value float64
	// Loss is the proven upper bound on the loss at Value — the quantity the
	// feasibility verdict is decided on, so Loss <= SLO holds exactly.
	Loss float64
	// Bracket is the largest value probed whose loss bound failed to clear
	// the SLO, and BracketLoss that upper bound (> SLO, again exactly). Its
	// probe either proved loss > SLO on its lower bound or reached the 0.1%
	// gap floor (or MaxBins) with the bounds still straddling the SLO.
	// Bracket is 0 when the SLO was already met at the bracket's cheapest
	// end.
	Bracket     float64
	BracketLoss float64
	// Util is the utilization at Value (service target only; 0 otherwise).
	Util float64
	// Solves counts probes, each exactly one forward solve; WarmSolves how
	// many of them were seeded from a previous iterate's occupancy vectors.
	Solves     int
	WarmSolves int
}

// InfeasibleError reports an SLO unreachable anywhere in the searched
// bracket: even its most generous end (largest buffer, lowest utilization)
// loses more than the SLO.
type InfeasibleError struct {
	Target string
	SLO    float64
	// Best is the bracket end probed and BestLoss its proven loss bound (> SLO).
	Best     float64
	BestLoss float64
}

// Error implements the error interface.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("core: SLO %.3g infeasible for target %s: loss %.3g > SLO at %s %.6g (widen the bracket or relax the SLO)",
		e.SLO, e.Target, e.BestLoss, e.Target, e.Best)
}

// probeGapFloor is the gap target of every probe (a smaller Solver.RelGap
// tightens it): a probe runs until its bounds decide the SLO, and only one
// whose loss sits within a 0.1% relative gap of the SLO gives up undecided
// — as resolved as any practical SLO comparison needs, and MaxBins usually
// caps the achievable resolution long before.
const probeGapFloor = 1e-3

// prober runs the forward solves of one inverse solve, counting them and
// enforcing the solve budget.
type prober struct {
	src    source.Source
	cfg    solver.Config
	slo    float64
	max    int
	solves int
	warm   int
}

func (p *prober) budget() error {
	if p.solves >= p.max {
		if p.cfg.Recorder != nil {
			p.cfg.Recorder.Add(obs.MetricCoreProvisionSolveBudget, 1)
		}
		return fmt.Errorf("core: provision exceeded its %d-solve budget before converging", p.max)
	}
	return nil
}

// solve makes one probe: a single forward solve that stops as soon as its
// bounds decide the SLO (solver.Decide). The bisection consumes the
// verdict, not the loss estimate: feasible means the solver proved loss <=
// SLO (the upper bound cleared it). Infeasible means either the lower bound
// proved loss > SLO, or the bracket still straddled the SLO at the gap
// floor (or at MaxBins) — a probe whose loss sits on the SLO — where a
// feasible verdict stays unproven.
func (p *prober) solve(ctx context.Context, serviceRate, buffer float64, seed *solver.Seed) (solver.Result, *solver.Seed, bool, error) {
	if err := ctx.Err(); err != nil {
		return solver.Result{}, nil, false, err
	}
	if err := p.budget(); err != nil {
		return solver.Result{}, nil, false, err
	}
	m, err := solver.NewModelFromSource(p.src, serviceRate, buffer*serviceRate)
	if err != nil {
		return solver.Result{}, nil, false, err
	}
	p.solves++
	if seed != nil && seed.ServiceRate == m.ServiceRate && seed.Buffer <= m.Buffer {
		p.warm++
	}
	res, err := solver.Decide(ctx, m, p.cfg, seed, p.slo)
	if err != nil {
		return solver.Result{}, nil, false, err
	}
	return res, solver.SeedFromResult(m, res), res.Upper <= p.slo, nil
}

// Provision answers the capacity-planning question for one realized
// source: the minimal buffer (or minimal service rate) whose loss meets
// the SLO. It is a bracketed bisection on the solver's monotone loss —
// decreasing in buffer, increasing in utilization — so every step keeps a
// proven two-sided bracket and the solve count is logarithmic in the
// bracket width. Successive iterates are near-identical queues: the buffer
// search threads warm-start seeds along its ascending-buffer moves (the
// direction the warm-start coupling argument permits), so later iterates
// cost a fraction of the first.
func Provision(ctx context.Context, src source.Source, opts ProvisionOptions) (Provisioned, error) {
	if !(opts.SLO > 0 && opts.SLO < 1) {
		return Provisioned{}, fmt.Errorf("core: SLO must be in (0, 1), got %g", opts.SLO)
	}
	if opts.Tol == 0 {
		opts.Tol = DefaultProvisionTol
	}
	if !(opts.Tol > 0 && opts.Tol < 1) {
		return Provisioned{}, fmt.Errorf("core: tol must be in (0, 1), got %g", opts.Tol)
	}
	if opts.MaxSolves <= 0 {
		opts.MaxSolves = DefaultMaxProvisionSolves
	}
	// The solver's budget machinery may degrade a single forward solve to a
	// best-so-far bracket; an inverse solve built on degraded losses would
	// silently provision against the budget, not the queue.
	opts.Solver.MaxDuration = 0
	// A probe stops once its bounds decide the SLO; the gap target only
	// bounds the work on a probe whose loss sits on the SLO.
	if !(opts.Solver.RelGap > 0 && opts.Solver.RelGap < probeGapFloor) {
		opts.Solver.RelGap = probeGapFloor
	}

	var out Provisioned
	var err error
	switch opts.Target {
	case "", TargetBuffer:
		out, err = provisionBuffer(ctx, src, opts)
	case TargetService:
		out, err = provisionService(ctx, src, opts)
	default:
		return Provisioned{}, fmt.Errorf("core: unknown provision target %q (want %q or %q)", opts.Target, TargetBuffer, TargetService)
	}
	if rec := opts.Solver.Recorder; rec != nil {
		var inf *InfeasibleError
		switch {
		case err == nil:
			rec.Add(obs.MetricCoreProvisions, 1)
			rec.Add(obs.MetricCoreProvisionSolves, float64(out.Solves))
			rec.Add(obs.MetricCoreProvisionWarmSolves, float64(out.WarmSolves))
		case errors.As(err, &inf):
			rec.Add(obs.MetricCoreProvisionInfeasible, 1)
		}
	}
	return out, err
}

// provisionBuffer finds the minimal normalized buffer: loss is decreasing
// in buffer, so [lo, hi] keeps loss(lo) > SLO and loss(hi) <= SLO and the
// log-scale midpoint replaces the matching end.
func provisionBuffer(ctx context.Context, src source.Source, opts ProvisionOptions) (Provisioned, error) {
	var serviceRate float64
	switch {
	case opts.Util != 0 && opts.Service != 0:
		return Provisioned{}, fmt.Errorf("core: give either util or service, not both")
	case opts.Util != 0:
		if !(opts.Util > 0 && opts.Util < 1) {
			return Provisioned{}, fmt.Errorf("core: utilization %g outside (0, 1)", opts.Util)
		}
		serviceRate = src.MeanRate() / opts.Util
	case opts.Service != 0:
		if opts.Service <= src.MeanRate() {
			return Provisioned{}, fmt.Errorf("core: service rate %g must exceed the mean rate %g", opts.Service, src.MeanRate())
		}
		serviceRate = opts.Service
	default:
		return Provisioned{}, fmt.Errorf("core: one of util or service is required for the buffer target")
	}
	lo, hi := opts.Min, opts.Max
	if lo == 0 {
		lo = DefaultMinBuffer
	}
	if hi == 0 {
		hi = DefaultMaxBuffer
	}
	if !(lo > 0 && hi > lo) {
		return Provisioned{}, fmt.Errorf("core: buffer bracket [%g, %g] must satisfy 0 < min < max", lo, hi)
	}

	p := &prober{src: src, cfg: opts.Solver, slo: opts.SLO, max: opts.MaxSolves}
	// Probe the cheap end first: done if it already meets the SLO. Its seed
	// warm-starts every later iterate — all at larger buffers.
	resLo, seed, feasLo, err := p.solve(ctx, serviceRate, lo, nil)
	if err != nil {
		return Provisioned{}, err
	}
	if feasLo {
		// Already feasible at the bracket minimum: no infeasible point
		// exists in the bracket, reported as Bracket 0.
		return Provisioned{
			Target: TargetBuffer, Value: lo, Loss: resLo.Upper,
			Solves: p.solves, WarmSolves: p.warm,
		}, nil
	}
	brLoss := resLo.Upper
	resHi, _, feasHi, err := p.solve(ctx, serviceRate, hi, seed)
	if err != nil {
		return Provisioned{}, err
	}
	if !feasHi {
		return Provisioned{}, &InfeasibleError{Target: TargetBuffer, SLO: opts.SLO, Best: hi, BestLoss: resHi.Upper}
	}
	feasLoss := resHi.Upper

	for hi/lo-1 > opts.Tol {
		if cerr := ctx.Err(); cerr != nil {
			return Provisioned{}, cerr
		}
		mid := math.Sqrt(lo * hi)
		if !(mid > lo && mid < hi) {
			break // bracket has collapsed to adjacent floats
		}
		res, midSeed, feas, err := p.solve(ctx, serviceRate, mid, seed)
		if err != nil {
			return Provisioned{}, err
		}
		if feas {
			hi, feasLoss = mid, res.Upper
		} else {
			lo, brLoss = mid, res.Upper
			seed = midSeed // every later midpoint is above the new lo
		}
	}
	return Provisioned{
		Target: TargetBuffer, Value: hi, Loss: feasLoss,
		Bracket: lo, BracketLoss: brLoss,
		Solves: p.solves, WarmSolves: p.warm,
	}, nil
}

// provisionService finds the minimal service rate by pushing utilization
// as high as the SLO allows: loss is increasing in utilization, so [lo,
// hi] keeps loss(lo) <= SLO and loss(hi) > SLO (or hi untested beyond the
// cap).
func provisionService(ctx context.Context, src source.Source, opts ProvisionOptions) (Provisioned, error) {
	if opts.Buffer <= 0 {
		return Provisioned{}, fmt.Errorf("core: the service target requires a positive buffer, got %g", opts.Buffer)
	}
	mean := src.MeanRate()
	if !(mean > 0) {
		return Provisioned{}, fmt.Errorf("core: source mean rate must be positive, got %g", mean)
	}
	lo, hi := opts.Min, opts.Max
	if lo == 0 {
		lo = DefaultMinUtil
	}
	if hi == 0 {
		hi = DefaultMaxUtil
	}
	if !(lo > 0 && hi > lo && hi < 1) {
		return Provisioned{}, fmt.Errorf("core: utilization bracket [%g, %g] must satisfy 0 < min < max < 1", lo, hi)
	}

	p := &prober{src: src, cfg: opts.Solver, slo: opts.SLO, max: opts.MaxSolves}
	// Each iterate changes the service rate, so warm seeds never transfer
	// (the seed compatibility contract pins the service rate).
	resLo, _, feasLo, err := p.solve(ctx, mean/lo, opts.Buffer, nil)
	if err != nil {
		return Provisioned{}, err
	}
	if !feasLo {
		return Provisioned{}, &InfeasibleError{Target: TargetService, SLO: opts.SLO, Best: mean / lo, BestLoss: resLo.Upper}
	}
	feasUtil, feasLoss := lo, resLo.Upper

	resHi, _, feasHi, err := p.solve(ctx, mean/hi, opts.Buffer, nil)
	if err != nil {
		return Provisioned{}, err
	}
	if feasHi {
		// The SLO holds even at the bracket's highest utilization: the
		// minimal service inside the searched range, with no infeasible
		// bracket point probed.
		return Provisioned{
			Target: TargetService, Value: mean / hi, Loss: resHi.Upper, Util: hi,
			Solves: p.solves, WarmSolves: p.warm,
		}, nil
	}
	infUtil, infLoss := hi, resHi.Upper

	for infUtil/feasUtil-1 > opts.Tol {
		if cerr := ctx.Err(); cerr != nil {
			return Provisioned{}, cerr
		}
		mid := math.Sqrt(feasUtil * infUtil)
		if !(mid > feasUtil && mid < infUtil) {
			break
		}
		res, _, feas, err := p.solve(ctx, mean/mid, opts.Buffer, nil)
		if err != nil {
			return Provisioned{}, err
		}
		if feas {
			feasUtil, feasLoss = mid, res.Upper
		} else {
			infUtil, infLoss = mid, res.Upper
		}
	}
	return Provisioned{
		Target: TargetService, Value: mean / feasUtil, Loss: feasLoss, Util: feasUtil,
		Bracket: mean / infUtil, BracketLoss: infLoss,
		Solves: p.solves, WarmSolves: p.warm,
	}, nil
}
