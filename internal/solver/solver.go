// Package solver implements the numerical procedure of Grossglauser &
// Bolot (SIGCOMM '96, §II) for the long-term loss rate of a finite-buffer
// fluid queue fed by the cutoff-correlated fluid source.
//
// The queue occupancy at arrival instants obeys the bounded Lindley
// recursion Q(n+1) = max(0, min(B, Q(n)+W(n))) (Eq. 9) with i.i.d. work
// increments W(n) = T_n·(λ(n)−c). The solver discretizes [0, B] into M bins
// of width d = B/M and iterates two coupled recursions (Eq. 18):
//
//   - a lower process Q_L: increments rounded down (Eq. 21), started empty;
//   - an upper process Q_H: increments rounded up (Eq. 22), started from
//     any vector that lies stochastically above the stationary occupancy.
//
// By Proposition II.1 the induced loss rates bracket the true loss at every
// iteration and resolution. The paper starts Q_H full, which makes the
// upper bound decrease in n; a cold solve here starts it instead at a
// certified exponential (Kingman's bound, see start.go) when the epoch law
// is bounded, and reports the running minimum of its upper iterates. The
// ladder starts at the first resolution whose grid step no longer pins the
// upper chain against B (see start.go). The per-step convolution (Eq. 19) runs in O(M log M) via FFT
// above a crossover size. When the bounds stop tightening at a given
// resolution, M is doubled and the iteration warm-restarts from the coarse
// occupancy vectors (footnote 3 of the paper).
//
// # Robustness contract
//
// Every solve is interruptible, budgeted, and self-checking:
//
//   - Cancellation. SolveContext, SolveModelContext, and Iterator.RunContext
//     check their context between Lindley iterations. Because the bounds are
//     valid at every iteration (Prop. II.1), cancellation or deadline expiry
//     never discards work: the solver returns the best-so-far bracketed
//     Result with Converged=false and Result.Degraded recording the reason,
//     and a nil error. A degraded Result still brackets the true loss:
//     Lower <= true loss <= Upper, and Lower <= Loss <= Upper (the midpoint).
//   - Budgets. Config.MaxDuration imposes a per-solve wall-clock budget,
//     Config.MaxIterations an iteration budget; exhausting either degrades
//     gracefully the same way instead of erroring or hanging.
//   - Numeric health. A watchdog in the hot loop rejects NaN/Inf values,
//     occupancy-mass drift beyond massDriftTol, bracket inversion
//     (lower > upper), and non-monotone bound movement. Violations surface
//     as *NumericError (matching the ErrNumeric sentinel) and the offending
//     step is never committed, so callers never observe garbage bounds. The
//     internal/faultinject package deliberately corrupts these quantities in
//     tests to prove the watchdog catches what it claims.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"lrd/internal/dist"
	"lrd/internal/faultinject"
	"lrd/internal/fft"
	"lrd/internal/fluid"
	"lrd/internal/numerics"
	"lrd/internal/obs"
)

// Model is the general system the procedure solves: a finite-buffer
// constant-rate server fed by a renewal-modulated fluid source whose epoch
// lengths follow any dist.Interarrival law. The paper instantiates it with
// the truncated-Pareto law (use Queue for that convenience), but the same
// machinery solves e.g. the hyperexponential (Markovian) baseline of §IV.
type Model struct {
	Marginal     dist.Marginal
	Interarrival dist.Interarrival
	ServiceRate  float64 // c, in work units per second (e.g. Mb/s)
	Buffer       float64 // B, in work units (e.g. Mb); Buffer = c·(normalized buffer)
}

// NewModel validates and returns a Model.
func NewModel(marginal dist.Marginal, inter dist.Interarrival, serviceRate, buffer float64) (Model, error) {
	if !(serviceRate > 0) {
		return Model{}, fmt.Errorf("solver: service rate %v, need > 0", serviceRate)
	}
	if !(buffer > 0) || math.IsInf(buffer, 1) {
		return Model{}, fmt.Errorf("solver: buffer %v, need finite > 0", buffer)
	}
	if marginal.Len() == 0 {
		return Model{}, errors.New("solver: empty marginal")
	}
	if inter == nil {
		return Model{}, errors.New("solver: nil interarrival law")
	}
	if err := inter.Validate(); err != nil {
		return Model{}, err
	}
	return Model{Marginal: marginal, Interarrival: inter, ServiceRate: serviceRate, Buffer: buffer}, nil
}

// Source is the structural contract the solver needs from any traffic
// model: the stationary rate marginal, the epoch-length law, and the mean
// rate (for utilization normalization). The internal/source package's
// model registry produces values satisfying it; the interface lives here
// (rather than importing internal/source, which depends on packages built
// on this one) so the dependency points outward only.
type Source interface {
	Marginal() dist.Marginal
	Interarrival() dist.Interarrival
	MeanRate() float64
}

// NewModelFromSource builds a validated Model from any traffic source in
// absolute units (service rate, buffer).
func NewModelFromSource(src Source, serviceRate, buffer float64) (Model, error) {
	if src == nil {
		return Model{}, errors.New("solver: nil source")
	}
	return NewModel(src.Marginal(), src.Interarrival(), serviceRate, buffer)
}

// NewModelNormalized builds a Model from a utilization target and a
// normalized buffer size in seconds — the parameterization used throughout
// the paper's experiments, generalized from Queue to any Source. The
// arithmetic (c = mean rate / utilization, B = normalized buffer · c) is
// identical to NewQueueNormalized, so a fluid-backed Source yields a
// bit-identical model.
func NewModelNormalized(src Source, utilization, normalizedBuffer float64) (Model, error) {
	if src == nil {
		return Model{}, errors.New("solver: nil source")
	}
	if !(utilization > 0 && utilization < 1) {
		return Model{}, fmt.Errorf("solver: utilization %v outside (0, 1)", utilization)
	}
	c := src.MeanRate() / utilization
	return NewModelFromSource(src, c, normalizedBuffer*c)
}

// Utilization returns ρ = λ̄/c.
func (m Model) Utilization() float64 { return m.Marginal.Mean() / m.ServiceRate }

// NormalizedBuffer returns B/c in seconds.
func (m Model) NormalizedBuffer() float64 { return m.Buffer / m.ServiceRate }

// Queue describes the paper's system: the fluid queue fed by the
// truncated-Pareto cutoff-correlated source (a Model specialization).
type Queue struct {
	Source      fluid.Source
	ServiceRate float64 // c, in work units per second (e.g. Mb/s)
	Buffer      float64 // B, in work units (e.g. Mb); Buffer = c·(normalized buffer)
}

// Model returns the general-solver view of the queue.
func (q Queue) Model() Model {
	return Model{
		Marginal:     q.Source.Marginal,
		Interarrival: q.Source.Interarrival,
		ServiceRate:  q.ServiceRate,
		Buffer:       q.Buffer,
	}
}

// NewQueue validates and returns a Queue.
func NewQueue(src fluid.Source, serviceRate, buffer float64) (Queue, error) {
	if _, err := NewModel(src.Marginal, src.Interarrival, serviceRate, buffer); err != nil {
		return Queue{}, err
	}
	return Queue{Source: src, ServiceRate: serviceRate, Buffer: buffer}, nil
}

// NewQueueNormalized builds a Queue from a utilization target and a
// normalized buffer size in seconds (buffer capacity divided by service
// rate), the parameterization used throughout the paper's experiments.
func NewQueueNormalized(src fluid.Source, utilization, normalizedBuffer float64) (Queue, error) {
	c, err := src.ServiceRateForUtilization(utilization)
	if err != nil {
		return Queue{}, err
	}
	return NewQueue(src, c, normalizedBuffer*c)
}

// Utilization returns ρ = λ̄/c.
func (q Queue) Utilization() float64 { return q.Source.MeanRate() / q.ServiceRate }

// NormalizedBuffer returns B/c in seconds.
func (q Queue) NormalizedBuffer() float64 { return q.Buffer / q.ServiceRate }

// The procedure's fixed tolerances: the paper's loss floor (§III) and the
// solver's numerical guards.
const (
	// lossFloor: if the upper bound falls below it, the loss is reported as
	// zero (paper: 1e-10, "below practical importance").
	lossFloor = 1e-10
	// stallTol declares the n-iteration stationary at the current M when
	// both bounds move by less than stallTol relative per step.
	stallTol = 1e-4
	// massDriftTol is the numeric-health watchdog's tolerance for occupancy
	// pmf mass drift per convolution step before renormalization. Drift
	// beyond it returns a *NumericError instead of silently renormalizing
	// corrupted mass (roundoff drift is ~1e-15).
	massDriftTol = 1e-6
	// slack is the absolute roundoff slack of a loss bound. Prop. II.1
	// holds in exact arithmetic; in floating point the FFT leaves bound
	// values of 1e-17 to 1e-16 where the loss is zero. Values below the
	// slack are snapped to zero (snap), and brackets agree within it.
	slack = lossFloor / 100
)

// Config tunes the solver. The zero value selects the defaults the paper's
// experimental setup describes (§III): a 20 % relative gap target between
// the bounds; its 1e-10 loss floor is the fixed lossFloor.
type Config struct {
	// InitialBins is the floor of the resolution ladder, default 128: a cold
	// solve starts at the first InitialBins·2^k whose grid step B/M is at
	// most max(|E[W]|, E[W²]/(2B)) — the mean drain per epoch, or near
	// utilization 1 the spread of the increments across the buffer (see
	// start.go) — and a seeded one near its seed.
	InitialBins int
	// MaxBins caps the resolution-doubling ladder. Default 32768.
	MaxBins int
	// RelGap is the convergence target: the solver stops when
	// (upper−lower) <= RelGap·(upper+lower)/2. Default 0.2 (the paper's 20%).
	RelGap float64
	// MaxIterations caps the total number of Lindley iterations across all
	// resolutions. Default 200000.
	MaxIterations int
	// MaxDuration is a per-solve wall-clock budget. When positive, RunContext
	// (and SolveContext/SolveModelContext) stop after it elapses and return
	// the best-so-far bracket as a degraded Result. Zero means no budget.
	MaxDuration time.Duration
	// Recorder receives solver telemetry (step counts and timings, bound
	// gap, mass drift, convolution path, refinements, per-solve outcomes;
	// see internal/obs for the metric names). A nil Recorder — the default
	// — disables instrumentation entirely: the hot loop pays one nil check
	// and allocates nothing, and results are bit-identical either way.
	Recorder obs.Recorder
	// Trace, when non-nil, is called once per committed Lindley iteration
	// with the current convergence state (and once more when the solve
	// finishes). The CLIs' -trace flag wires this to a JSONL writer. Like
	// Recorder, a nil Trace changes nothing about the solve.
	Trace func(TracePoint)
}

// TracePoint is one record of a solve's convergence trace: the bracketing
// loss bounds after a committed Lindley iteration. By Proposition II.1 the
// Lower series is non-decreasing and the Upper series non-increasing
// within a solve; Bins jumps record the M-doubling warm restarts. Solve
// disambiguates interleaved traces when a sweep solves cells concurrently
// (ids are unique within the process, in creation order).
type TracePoint struct {
	// Solve identifies the solve (Iterator) this point belongs to.
	Solve uint64 `json:"solve"`
	// Iteration counts committed Lindley steps (1-based after the first).
	Iteration int `json:"iter"`
	// Bins is the resolution M at this iteration.
	Bins int `json:"bins"`
	// Lower and Upper are the loss-rate bounds after this iteration.
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
	// Elapsed is the wall time in seconds since the Iterator was created.
	Elapsed float64 `json:"elapsed_s"`
	// Final marks the last point of a solve (emitted from RunContext).
	Final bool `json:"final,omitempty"`
	// Trace is the correlated trace id (obs.TraceContext) of the request
	// or sweep cell that drove this solve, when the context carried one.
	Trace string `json:"trace,omitempty"`
}

// solveSeq numbers Iterators process-wide so concurrent solves' trace
// points can be told apart in one JSONL stream.
var solveSeq atomic.Uint64

func (c Config) withDefaults() Config {
	if c.InitialBins <= 0 {
		c.InitialBins = 128
	}
	if c.MaxBins <= 0 {
		c.MaxBins = 32768
	}
	if c.MaxBins < c.InitialBins {
		c.MaxBins = c.InitialBins
	}
	if c.RelGap <= 0 {
		c.RelGap = 0.2
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 200000
	}
	return c
}

// snap maps a bound value below the roundoff slack to zero.
func (it *Iterator) snap(v float64) float64 {
	if v < slack {
		return 0
	}
	return v
}

// Result reports the solved loss rate and diagnostics.
type Result struct {
	// Loss is the reported loss rate: the midpoint of the final bounds, or
	// zero when the upper bound fell below the loss floor.
	Loss float64
	// Lower and Upper are the final bound values l(Q_L^M(n)) and l(Q_H^M(n));
	// after a certified upper start, Upper is the least l(Q_H) seen.
	Lower, Upper float64
	// Bins is the final resolution M.
	Bins int
	// Iterations is the total number of Lindley steps performed.
	Iterations int
	// Converged reports whether the RelGap target (or the loss floor) was
	// met before exhausting MaxBins/MaxIterations — or, for a Decide solve,
	// whether the bracket decided the threshold first (Upper <= threshold
	// or Lower > threshold), in which case Loss is still the midpoint.
	Converged bool
	// Degraded is nonempty when the solve stopped before its convergence
	// target — context cancellation, deadline or budget expiry, or a
	// numeric stall — and records why. A degraded result is still a valid
	// bracket: Lower <= true loss <= Upper holds at every iteration
	// (Prop. II.1), and Loss is the bracket midpoint.
	Degraded DegradeReason
	// GridStep is the final quantization d = B/M in work units.
	GridStep float64
	// LowerOccupancy and UpperOccupancy are the final occupancy pmfs of
	// the two bound processes over the grid {0, d, …, B} (at arrival
	// instants). They bracket the stationary occupancy distribution and
	// yield delay quantiles via OccupancyQuantile.
	LowerOccupancy, UpperOccupancy []float64
}

// OccupancyQuantile returns conservative (lower, upper) estimates of the
// u-quantile of the stationary queue occupancy, in work units, read from
// the two bound distributions. The delay quantile follows by dividing by
// the service rate. u must lie in (0, 1]; any other value (including NaN)
// yields (NaN, NaN) rather than a silently wrong quantile.
func (r Result) OccupancyQuantile(u float64) (lower, upper float64) {
	if !(u > 0 && u <= 1) {
		return math.NaN(), math.NaN()
	}
	quantile := func(pmf []float64) float64 {
		var acc float64
		for j, p := range pmf {
			acc += p
			if acc >= u {
				return float64(j) * r.GridStep
			}
		}
		return float64(len(pmf)-1) * r.GridStep
	}
	if len(r.LowerOccupancy) == 0 || len(r.UpperOccupancy) == 0 {
		return 0, 0
	}
	// The lower process is stochastically smaller: its quantile is the
	// lower estimate.
	return quantile(r.LowerOccupancy), quantile(r.UpperOccupancy)
}

// RelativeGap returns (Upper−Lower)/midpoint. When both bounds are exactly
// zero (a converged loss-floor result) the gap is 0, not NaN — callers can
// always compare it against a threshold without a NaN guard.
func (r Result) RelativeGap() float64 {
	return relativeGap(r.Lower, r.Upper)
}

// Solve computes the stationary loss rate of the paper's queue.
func Solve(q Queue, cfg Config) (Result, error) {
	return SolveContext(context.Background(), q, cfg)
}

// SolveModel computes the stationary loss rate of a general Model.
func SolveModel(m Model, cfg Config) (Result, error) {
	return SolveModelContext(context.Background(), m, cfg)
}

// Iterator exposes the solver's state step by step, which the paper's
// Figure 2 uses to show the occupancy bounds after n = 5, 10, 30
// iterations. Most callers should use Solve.
type Iterator struct {
	model Model
	cfg   Config

	bins int       // current M
	d    float64   // grid step B/M
	wl   []float64 // lower-rounded increment pmf, index i ↦ w_L(i−M), length 2M+1
	wh   []float64 // upper-rounded increment pmf
	ql   []float64 // lower occupancy pmf over {0, d, …, B}, length M+1
	qh   []float64 // upper occupancy pmf
	loss []float64 // E[W_l | Q = j·d] for j = 0..M

	arrivalWork float64 // λ̄·E[T], the denominator of Eq. (13)
	iterations  int
	lowerLoss   float64
	upperLoss   float64

	id      uint64    // process-unique solve id for trace disambiguation
	start   time.Time // Iterator creation time (trace/metrics wall clock)
	traceID string    // correlated trace id stamped on every TracePoint

	// Trace envelope: the tightest bracket seen so far. Every iteration's
	// bounds bracket the true loss (Prop. II.1), so their running
	// intersection is a valid bracket that is exactly monotone — unlike
	// the raw per-step values, whose sub-roundoff jitter the watchdog
	// tolerates (monotoneRelTol) but a strict trace reader would not.
	traceLo float64
	traceHi float64

	// scratch is the pooled scratch set borrowed for this solve's lifetime;
	// qlNext/qhNext are the step output double-buffers; cl/cc retain the
	// work-increment cdf tables so a Refine recomputes only the odd grid
	// points (the even ones coincide bitwise with the coarse grid's).
	scratch        *arenaScratch
	qlNext, qhNext []float64
	cl, cc         []float64

	// Warm-start state: warm marks a solve seeded from a neighbor cell's
	// occupancy vectors (see Seed). Seeded vectors are valid stochastic
	// bounds but not sub-fixed-points of the Lindley map, so the per-step
	// monotonicity watchdog is gated off for warm solves; the bracket-order
	// watchdog stays on and verifies Prop. II.1 validity every iteration.
	warm      bool
	seedIters int // the seeding solve's iteration count, for saved-work metrics

	// certified marks a cold upper start at the certified exponential (see
	// start.go). Its iterates are valid bounds but not monotone, so the
	// upper monotonicity check is off and upperLoss is their running
	// minimum.
	certified bool

	// threshold, when positive, is the loss a Decide solve must classify:
	// the solve stops as soon as its bracket lies on one side of it. Zero
	// (every other entry point) leaves the stopping rule untouched.
	threshold float64
}

// NewIterator validates the queue and prepares the initial resolution.
func NewIterator(q Queue, cfg Config) (*Iterator, error) {
	return NewModelIterator(q.Model(), cfg)
}

// NewModelIterator validates a general model and prepares a cold start at
// the first rung whose upper chain can mix (see start.go).
func NewModelIterator(m Model, cfg Config) (*Iterator, error) {
	it, err := newIterator(m, cfg, 0)
	if err != nil {
		return nil, err
	}
	it.startCold()
	return it, nil
}

// newIterator builds the iterator shell and its grid tables at the given
// start resolution (0 means a cold solve's first rung, coldBins), leaving
// the occupancy vectors zeroed; NewModelIterator and
// NewModelIteratorSeeded finish the construction by choosing the start
// distributions.
func newIterator(m Model, cfg Config, bins int) (*Iterator, error) {
	if _, err := NewModel(m.Marginal, m.Interarrival, m.ServiceRate, m.Buffer); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if bins <= 0 {
		bins = coldBins(m, cfg)
	}
	it := &Iterator{
		model:       m,
		cfg:         cfg,
		arrivalWork: m.Marginal.Mean() * m.Interarrival.Mean(),
		id:          solveSeq.Add(1),
		start:       time.Now(),
		scratch:     borrowScratch(cfg.Recorder),
	}
	it.setResolution(bins)
	if err := it.validatePMF("lower increment", it.wl); err != nil {
		it.release()
		return nil, err
	}
	if err := it.validatePMF("upper increment", it.wh); err != nil {
		it.release()
		return nil, err
	}
	it.ql = it.scratch.getFloat(it.bins + 1)
	it.qh = it.scratch.getFloat(it.bins + 1)
	it.traceLo = 0
	it.traceHi = math.Inf(1)
	if rec := cfg.Recorder; rec != nil {
		rec.Set(obs.MetricSolverBins, float64(it.bins))
		rec.Observe(obs.MetricSolverStartBins, float64(it.bins))
	}
	return it, nil
}

// startCold sets the cold start at the current rung: the lower process
// empty and the upper one at the certified exponential, or full where the
// epoch law is unbounded or no θ certifies.
func (it *Iterator) startCold() {
	clear(it.ql)
	clear(it.qh)
	it.ql[0] = 1 // Q_L(0) = 0: start empty
	if theta := startTheta(it.model); theta > 0 {
		certifiedStart(it.qh, theta, it.d)
		it.certified = true
		if rec := it.cfg.Recorder; rec != nil {
			rec.Add(obs.MetricSolverCertifiedStarts, 1)
		}
	} else {
		it.qh[it.bins] = 1 // Q_H(0) = B: start full
	}
	it.lowerLoss = it.lossOf(it.ql)
	it.upperLoss = it.lossOf(it.qh)
}

// release returns the borrowed scratch set to the pool, recycling this
// solve's internal buffers for the next solve. Only the Solve* entry points
// call it, once their iterator has finished; afterwards the iterator must
// not be stepped again (results already returned are unaffected — they
// hold copies). Idempotent.
func (it *Iterator) release() {
	s := it.scratch
	if s == nil {
		return
	}
	it.scratch = nil
	s.putFloat(it.ql)
	s.putFloat(it.qh)
	s.putFloat(it.qlNext)
	s.putFloat(it.qhNext)
	s.putFloat(it.wl)
	s.putFloat(it.wh)
	s.putFloat(it.loss)
	s.putFloat(it.cl)
	s.putFloat(it.cc)
	it.ql, it.qh, it.qlNext, it.qhNext = nil, nil, nil, nil
	it.wl, it.wh, it.loss, it.cl, it.cc = nil, nil, nil, nil, nil
	scratchPool.Put(s)
}

// setResolution (re)builds the grid-dependent tables for M bins. The
// previous rung's tables are recycled through the scratch free list, and a
// resolution doubling copies the coarse grid's cdf/loss entries into
// the even fine-grid slots instead of recomputing them: the evaluation
// points coincide bitwise (B/(2M) rounds to exactly half of B/M, and
// float64(2j)·(B/(2M)) to exactly float64(j)·(B/M)), so the copied entries
// equal what recomputation would produce and results stay bit-identical.
func (it *Iterator) setResolution(m int) {
	prevBins := it.bins
	prevCl, prevCc, prevLoss := it.cl, it.cc, it.loss
	prevWl, prevWh := it.wl, it.wh
	it.bins = m
	it.d = it.model.Buffer / float64(m)
	reuseCl, reuseCc, reuseLoss := prevCl, prevCc, prevLoss
	if prevBins <= 0 || m != 2*prevBins {
		reuseCl, reuseCc, reuseLoss = nil, nil, nil
	}
	cl, cc := it.cdfTables(m, reuseCl, reuseCc)
	it.wl, it.wh = it.incrementPMFs(m, cl, cc)
	it.loss = it.lossTable(m, reuseLoss)
	it.cl, it.cc = cl, cc
	for _, b := range [][]float64{prevCl, prevCc, prevWl, prevWh, prevLoss} {
		it.scratch.putFloat(b)
	}
}

// Bins returns the current resolution M.
func (it *Iterator) Bins() int { return it.bins }

// GridStep returns d = B/M.
func (it *Iterator) GridStep() float64 { return it.d }

// Iterations returns the number of Lindley steps performed so far.
func (it *Iterator) Iterations() int { return it.iterations }

// LossBounds returns the current lower and upper loss-rate bounds; after a
// certified upper start the upper one is the least seen so far.
func (it *Iterator) LossBounds() (lower, upper float64) {
	return it.lowerLoss, it.upperLoss
}

// LowerOccupancy returns a copy of the lower-bound occupancy pmf over the
// grid {0, d, 2d, …, B}.
func (it *Iterator) LowerOccupancy() []float64 {
	return append([]float64(nil), it.ql...)
}

// UpperOccupancy returns a copy of the upper-bound occupancy pmf.
func (it *Iterator) UpperOccupancy() []float64 {
	return append([]float64(nil), it.qh...)
}

// Step performs one Lindley iteration on both bound processes and refreshes
// the loss bounds. The numeric-health watchdog validates the step before it
// is committed: on a violation Step returns a *NumericError and leaves the
// iterator at its last healthy state.
func (it *Iterator) Step() error {
	var stepStart time.Time
	if it.cfg.Recorder != nil {
		stepStart = time.Now()
	}
	// The output double-buffers come from the scratch free list, and a pair
	// a Refine outgrew goes back to it.
	n := it.bins + 1
	if cap(it.qlNext) < n {
		it.scratch.putFloat(it.qlNext)
		it.qlNext = it.scratch.getFloat(n)
	}
	if cap(it.qhNext) < n {
		it.scratch.putFloat(it.qhNext)
		it.qhNext = it.scratch.getFloat(n)
	}
	conv := &it.scratch.conv
	ql, driftL := lindleyStepInto(it.ql, it.wl, it.bins, conv, it.qlNext[:n])
	qh, driftH := lindleyStepInto(it.qh, it.wh, it.bins, conv, it.qhNext[:n])
	newLo, newHi := it.lossOf(ql), it.lossOf(qh)
	if faultinject.Active() {
		pair := []float64{newLo, newHi}
		faultinject.Apply(faultinject.SolverLossBounds, pair)
		newLo, newHi = pair[0], pair[1]
	}
	if err := it.checkStepHealth(driftL, driftH, newLo, newHi); err != nil {
		if rec := it.cfg.Recorder; rec != nil {
			rec.Add(obs.MetricSolverNumericErrors, 1)
		}
		return err
	}
	// Double-buffer: the displaced vectors become the next step's output
	// buffers.
	it.ql, it.qlNext = ql, it.ql
	it.qh, it.qhNext = qh, it.qh
	it.lowerLoss = newLo
	it.setUpper(newHi)
	it.iterations++
	if rec := it.cfg.Recorder; rec != nil {
		rec.Add(obs.MetricSolverSteps, 1)
		rec.Observe(obs.MetricSolverStepSeconds, time.Since(stepStart).Seconds())
		rec.Observe(obs.MetricSolverMassDrift, math.Abs(driftL))
		rec.Observe(obs.MetricSolverMassDrift, math.Abs(driftH))
		rec.Set(obs.MetricSolverGap, relativeGap(newLo, newHi))
		// One Lindley step convolves both bound processes.
		if fft.DirectConvolutionSizes(it.bins+1, 2*it.bins+1) {
			rec.Add(obs.MetricSolverConvolveDirect, 2)
		} else {
			rec.Add(obs.MetricSolverConvolveFFT, 2)
		}
	}
	if it.cfg.Trace != nil {
		it.cfg.Trace(it.tracePoint(false))
	}
	return nil
}

// setUpper records a committed upper-bound value: the value itself, or for
// a certified start the running minimum, since each of its iterates bounds
// the loss but they need not decrease.
func (it *Iterator) setUpper(hi float64) {
	if !it.certified || hi < it.upperLoss {
		it.upperLoss = hi
	}
}

// tracePoint captures the iterator's current convergence state. The
// emitted bounds are the running envelope (traceLo/traceHi): the tightest
// bracket seen so far, which is exactly monotone per Prop. II.1 even in
// the presence of sub-roundoff jitter on the raw per-step values. Bound
// values below the roundoff slack are additionally snapped to zero, the
// way the stall detector treats them.
func (it *Iterator) tracePoint(final bool) TracePoint {
	if lo := it.snap(it.lowerLoss); lo > it.traceLo {
		it.traceLo = lo
	}
	if hi := it.snap(it.upperLoss); hi < it.traceHi {
		it.traceHi = hi
	}
	return TracePoint{
		Solve:     it.id,
		Iteration: it.iterations,
		Bins:      it.bins,
		Lower:     it.traceLo,
		Upper:     it.traceHi,
		Elapsed:   time.Since(it.start).Seconds(),
		Final:     final,
		Trace:     it.traceID,
	}
}

// relativeGap is Result.RelativeGap over raw bound values.
func relativeGap(lo, hi float64) float64 {
	mid := (hi + lo) / 2
	if mid == 0 {
		return 0
	}
	return (hi - lo) / mid
}

// Refine doubles the resolution, re-projecting the occupancy vectors onto
// the finer grid (each coarse atom j·d sits exactly on fine grid point 2j,
// so the projection is exact and the bound properties are preserved —
// footnote 3 of the paper). It returns false if MaxBins would be exceeded.
func (it *Iterator) Refine() bool {
	if it.bins*2 > it.cfg.MaxBins {
		return false
	}
	old := it.bins
	oldQl, oldQh := it.ql, it.qh
	it.setResolution(old * 2)
	ql := it.scratch.getFloat(it.bins + 1)
	qh := it.scratch.getFloat(it.bins + 1)
	for j := 0; j <= old; j++ {
		ql[2*j] = oldQl[j]
		qh[2*j] = oldQh[j]
	}
	it.ql, it.qh = ql, qh
	it.scratch.putFloat(oldQl)
	it.scratch.putFloat(oldQh)
	it.lowerLoss = it.lossOf(it.ql)
	it.setUpper(it.lossOf(it.qh))
	if rec := it.cfg.Recorder; rec != nil {
		rec.Add(obs.MetricSolverRefines, 1)
		rec.Set(obs.MetricSolverBins, float64(it.bins))
	}
	return true
}

// converged reports whether the current bounds meet the stopping rule: the
// loss floor, the RelGap target, or — for a Decide solve — a bracket that
// already lies on one side of the threshold.
func (it *Iterator) converged() (Result, bool) {
	lo, hi := it.lowerLoss, it.upperLoss
	if hi < lossFloor {
		return it.result(0, lo, hi, true), true
	}
	mid := (hi + lo) / 2
	if mid > 0 && hi-lo <= it.cfg.RelGap*mid {
		return it.result(mid, lo, hi, true), true
	}
	if t := it.threshold; t > 0 && (hi <= t || lo > t) {
		return it.result(mid, lo, hi, true), true
	}
	return Result{}, false
}

func (it *Iterator) result(loss, lo, hi float64, ok bool) Result {
	return Result{
		Loss:           loss,
		Lower:          lo,
		Upper:          hi,
		Bins:           it.bins,
		Iterations:     it.iterations,
		Converged:      ok,
		GridStep:       it.d,
		LowerOccupancy: it.LowerOccupancy(),
		UpperOccupancy: it.UpperOccupancy(),
	}
}

// Run drives the iterate/refine loop to completion. It is RunContext with
// a background context; see RunContext for the degrade-gracefully and
// numeric-health contract.
func (it *Iterator) Run() (Result, error) {
	return it.RunContext(context.Background())
}

func relChange(prev, cur float64) float64 {
	if prev == cur {
		return 0
	}
	den := math.Max(math.Abs(prev), math.Abs(cur))
	if den == 0 {
		return 0
	}
	return math.Abs(cur-prev) / den
}

// lindleyStepInto applies Eqs. (19)–(20): convolve the occupancy pmf with
// the increment pmf, then fold the mass escaping below 0 into bin 0 and the
// mass escaping above B into bin M. The result is renormalized to unit mass
// to stop roundoff drift over long runs (and to clamp the ~1-ulp negative
// values FFT convolution can produce). conv supplies the convolution
// workspace and out (length m+1, fully overwritten) receives the stepped
// pmf. The pre-renormalization drift (total−1) is returned for the
// numeric-health watchdog.
func lindleyStepInto(q, w []float64, m int, conv *fft.Scratch, out []float64) ([]float64, float64) {
	// u[k] corresponds to occupancy position (k−m)·d, k = 0..3m.
	u := fft.ConvolveRealInto(q, w, conv)
	faultinject.Apply(faultinject.SolverConvolution, u)
	var under, over numerics.Accumulator
	for k := 0; k <= m; k++ { // positions −m·d … 0
		under.Add(math.Max(u[k], 0))
	}
	for k := 2 * m; k < len(u); k++ { // positions B … 2B
		over.Add(math.Max(u[k], 0))
	}
	out[0] = under.Sum()
	out[m] = over.Sum()
	for j := 1; j < m; j++ {
		out[j] = math.Max(u[m+j], 0)
	}
	total := numerics.KahanSum(out)
	if total > 0 {
		inv := 1 / total
		for j := range out {
			out[j] *= inv
		}
	}
	return out, total - 1
}

// incrementPMFs builds the rounded-increment pmfs of Eqs. (21)–(22):
//
//	w_L(i) = Pr{W ∈ [i·d, (i+1)·d)}   (mass moved down: lower process)
//	w_H(i) = Pr{W ∈ ((i−1)·d, i·d]}   (mass moved up: upper process)
//
// with the tails beyond ±B lumped into the end bins (any step ≤ −B empties
// and ≥ +B fills the buffer regardless of the starting occupancy). The
// returned slices have length 2M+1; index i+M holds w(i). cl and cc are the
// cdf tables from cdfTables at the same resolution.
func (it *Iterator) incrementPMFs(m int, cl, cc []float64) (wl, wh []float64) {
	wl = it.scratch.getFloat(2*m + 1)
	wh = it.scratch.getFloat(2*m + 1)
	// Lower: w_L(i) = P{W < (i+1)d} − P{W < i·d}; end bins lump the tails.
	for i := -m; i <= m; i++ {
		switch {
		case i == -m:
			wl[0] = cl[1] // Pr{W < (−M+1)d}
		case i == m:
			wl[2*m] = 1 - cl[2*m] // Pr{W >= M·d}
		default:
			wl[i+m] = cl[i+m+1] - cl[i+m]
		}
	}
	for i := -m; i <= m; i++ {
		switch {
		case i == -m:
			wh[0] = cc[0] // Pr{W <= −M·d}
		case i == m:
			wh[2*m] = 1 - cc[2*m-1] // Pr{W > (M−1)d}
		default:
			wh[i+m] = cc[i+m] - cc[i+m-1]
		}
	}
	clampNonneg(wl)
	clampNonneg(wh)
	faultinject.Apply(faultinject.SolverIncrementPMF, wl)
	faultinject.Apply(faultinject.SolverIncrementPMF, wh)
	return wl, wh
}

// cdfTables evaluates the work-increment cdfs at the 2m+2 grid points i·d
// for i = −m..m+1: cl holds the strict cdf Pr{W < i·d}, cc the non-strict
// Pr{W <= i·d}. When the previous rung's tables at resolution m/2 are
// supplied (a resolution doubling), the even-index entries are copied
// instead of recomputed — the evaluation points coincide bitwise, so the
// copies equal what recomputation would produce.
func (it *Iterator) cdfTables(m int, prevCl, prevCc []float64) (cl, cc []float64) {
	d := it.model.Buffer / float64(m)
	cl = it.scratch.getFloat(2*m + 2)
	cc = it.scratch.getFloat(2*m + 2)
	reuse := len(prevCl) == m+2 && len(prevCc) == m+2
	// Both built-in laws evaluate Pr{T > t} and Pr{T >= t} in one CCDFBoth
	// call, at about the cost of one (the two share their power-law or
	// exponential-sum evaluation except at atoms); each component is
	// bitwise equal to the separate CCDF / CCDFAtLeast call another law
	// falls back to.
	law := it.model.Interarrival
	both := func(t float64) (gt, ge float64) { return law.CCDF(t), law.CCDFAtLeast(t) }
	if fused, ok := law.(interface {
		CCDFBoth(float64) (float64, float64)
	}); ok {
		both = fused.CCDFBoth
	}
	for i := -m; i <= m+1; i++ {
		idx := i + m
		if reuse && idx%2 == 0 {
			cl[idx] = prevCl[idx/2]
			cc[idx] = prevCc[idx/2]
			continue
		}
		cl[idx], cc[idx] = it.workCDF(float64(i)*d, both)
	}
	return cl, cc
}

func clampNonneg(xs []float64) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

// workCDF evaluates the mixture distribution of the per-epoch work
// increment W = T·(λ−c) (Eq. 10) at x: Pr{W < x} and Pr{W <= x}, in one
// pass over the marginal, from both(t) = (Pr{T > t}, Pr{T >= t}). The
// interarrival law T has a continuous Pareto part on (0, Tc) and an atom
// at Tc, so W inherits atoms at (λ_i−c)·Tc.
func (it *Iterator) workCDF(x float64, both func(t float64) (gt, ge float64)) (strict, nonstrict float64) {
	c := it.model.ServiceRate
	marg := it.model.Marginal
	var accS, accN numerics.Accumulator
	for i := 0; i < marg.Len(); i++ {
		lam := marg.Rate(i)
		pi := marg.Prob(i)
		drift := lam - c
		switch {
		case drift == 0:
			// W_i ≡ 0.
			if x > 0 {
				accS.Add(pi)
				accN.Add(pi)
			} else if x == 0 {
				accN.Add(pi)
			}
		case drift > 0:
			// W_i = T·drift > 0 a.s.
			if x <= 0 {
				continue
			}
			gt, ge := both(x / drift)
			accS.Add(pi * (1 - ge)) // Pr{W_i < x} = 1 − Pr{T >= t}
			accN.Add(pi * (1 - gt)) // Pr{W_i <= x} = 1 − Pr{T > t}
		default: // drift < 0: W_i < 0 a.s.
			if x >= 0 {
				accS.Add(pi)
				accN.Add(pi)
				continue
			}
			gt, ge := both(x / drift) // t > 0; W_i <= x ⇔ T >= t
			accS.Add(pi * gt)         // Pr{W_i < x} = Pr{T > t}
			accN.Add(pi * ge)         // Pr{W_i <= x} = Pr{T >= t}
		}
	}
	return numerics.Clamp(accS.Sum(), 0, 1), numerics.Clamp(accN.Sum(), 0, 1)
}

// lossTable precomputes E[W_l | Q = j·d] for j = 0..M using the closed form
// derived in the paper (§II), generalized to any interarrival law:
//
//	E[W_l|Q=x] = Σ_{i: λ_i>c} π_i·(λ_i−c)·∫_{(B−x)/(λ_i−c)}^∞ Pr{T > t} dt
//
// which for the truncated Pareto reduces to the paper's
// θ/(α−1)·Σ π_i(λ_i−c)[((B−x)/(θ(λ_i−c))+1)^(1−α) − (Tc/θ+1)^(1−α)].
// When the previous rung's table at resolution m/2 is supplied (a
// resolution doubling), the even entries are copied — same
// bitwise-coincidence argument as cdfTables.
func (it *Iterator) lossTable(m int, prev []float64) []float64 {
	out := it.scratch.getFloat(m + 1)
	d := it.model.Buffer / float64(m)
	reuse := m%2 == 0 && len(prev) == m/2+1
	integral := it.model.Interarrival.IntegralCCDF
	if c, ok := it.model.Interarrival.(integralCCDFCurried); ok {
		// Hoist the law constants (cutoff tail pow, scale) out of the
		// m+1-point tabulation; the curried form is bitwise equal.
		integral = c.IntegralCCDFFunc()
	}
	for j := 0; j <= m; j++ {
		if reuse && j%2 == 0 {
			out[j] = prev[j/2]
			continue
		}
		out[j] = it.expectedLossGiven(float64(j)*d, integral)
	}
	return out
}

// integralCCDFCurried is the optional law contract behind the hoisted loss
// tabulation: IntegralCCDFFunc returns IntegralCCDF with per-law constants
// precomputed, bitwise equal at every point. Both built-in laws implement
// it.
type integralCCDFCurried interface {
	IntegralCCDFFunc() func(a float64) float64
}

// ExpectedLossGivenOccupancy returns E[W_l | Q = x], the expected work lost
// in one interarrival interval starting from occupancy x.
func (it *Iterator) ExpectedLossGivenOccupancy(x float64) float64 {
	return it.expectedLossGiven(x, it.model.Interarrival.IntegralCCDF)
}

func (it *Iterator) expectedLossGiven(x float64, integral func(a float64) float64) float64 {
	c := it.model.ServiceRate
	marg := it.model.Marginal
	b := it.model.Buffer
	if x > b {
		x = b
	}
	var acc numerics.Accumulator
	for i := 0; i < marg.Len(); i++ {
		drift := marg.Rate(i) - c
		if drift <= 0 {
			continue
		}
		// E[(W_i − (B−x))⁺] = drift·∫_{(B−x)/drift}^∞ Pr{T > t} dt.
		acc.Add(marg.Prob(i) * drift * integral((b-x)/drift))
	}
	return acc.Sum()
}

// lossOf evaluates Eq. (23)/(24): the loss rate induced by the occupancy
// pmf q, namely Σ_j q(j)·E[W_l|Q=j·d] / (λ̄·E[T]).
func (it *Iterator) lossOf(q []float64) float64 {
	var acc numerics.Accumulator
	for j, mass := range q {
		if mass == 0 {
			continue
		}
		acc.Add(mass * it.loss[j])
	}
	return acc.Sum() / it.arrivalWork
}
