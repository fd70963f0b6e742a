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
// iteration and resolution. Each resolution's tables — the increment cdfs
// behind Eqs. (21)–(22) and the closed-form E[W_l | Q = x] of Eq. (23) —
// come from one pass over the grid in which each law evaluation serves
// both (gridTables). The paper starts Q_H full, which makes the
// upper bound decrease in n; a cold solve here starts it instead at a
// certified exponential (Kingman's bound, see start.go) when the epoch law
// is bounded, and reports the running minimum of its upper iterates. The
// ladder starts at the first resolution whose grid step no longer pins the
// upper chain against B (see start.go). Each step (Eq. 19) convolves both
// processes at once in O(M log M): one forward and one inverse transform
// of the least power of two N ≥ 2M against the increment pmfs' spectra,
// cached per resolution (fft.Pair, which never permutes), give the bins
// strictly inside (0, B), and O(M) sums over cumulative increment tables
// give the mass folded into 0 and B exactly. The step's O(M) work — those
// sums, the clamp and renormalization, and the loss evaluation — runs in
// loops over both processes at once. When the bounds stop tightening at a
// given resolution, M is doubled and the iteration warm-restarts from the
// coarse occupancy vectors (footnote 3 of the paper).
//
// The solve loop (runContext) runs Lindley steps and, after every three
// plain steps at a rung, one certified jump (jump.go): it extrapolates each
// process's occupancy ccdf along its last increment, steps both candidates
// at the cost of one step, and keeps a candidate only if that step shows it
// to be a sub-fixed point of the lower map or a super-fixed point of the
// upper one. Such a candidate lies below (above) the stationary occupancy,
// so every later iterate still bounds the loss as Prop. II.1 requires; an
// uncertified one is dropped. Iterator.Step stays the plain step.
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
	"math/bits"
	"sync/atomic"
	"time"

	"lrd/internal/dist"
	"lrd/internal/faultinject"
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
	// gap, mass drift, refinements, per-solve outcomes; see internal/obs
	// for the metric names). A nil Recorder — the default — disables
	// instrumentation entirely: the hot loop pays one nil check and
	// allocates nothing, and results are bit-identical either way.
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

	// headL/tailL and headH/tailH are the increment pmfs' cumulative sums
	// that fold a step's mass into the end bins (see foldSums).
	headL, tailL []float64
	headH, tailH []float64

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

	// scratch is the pooled scratch set borrowed for this solve's lifetime
	// (its fft.Pair holds the increment spectra of the current rung);
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

	// Certified jumps (jump.go): each process's history and schedule, and
	// the plain steps since the last attempt or Refine.
	jumpL, jumpH jumpState
	plain        int
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
		jumpL:       jumpState{scale: jumpScale0},
		jumpH:       jumpState{scale: jumpScale0},
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
	it.lowerLoss, it.upperLoss = it.lossOf(it.ql, it.qh, 1, 1)
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
	for _, b := range [...][]float64{it.ql, it.qh, it.qlNext, it.qhNext, it.wl, it.wh,
		it.loss, it.cl, it.cc, it.headL, it.tailL, it.headH, it.tailH, it.jumpL.cand, it.jumpH.cand} {
		s.putFloat(b)
	}
	it.ql, it.qh, it.qlNext, it.qhNext = nil, nil, nil, nil
	it.wl, it.wh, it.loss, it.cl, it.cc = nil, nil, nil, nil, nil
	it.headL, it.tailL, it.headH, it.tailH = nil, nil, nil, nil
	it.jumpL.cand, it.jumpH.cand = nil, nil
	scratchPool.Put(s)
}

// setResolution (re)builds the grid-dependent tables for M bins: the cdf
// and loss tables (one pass, gridTables), the increment pmfs, their fold
// sums, and their spectra for the step's transform pair. The previous
// rung's tables are recycled through the scratch free list, and a
// resolution doubling copies the coarse grid's cdf/loss entries into the
// even fine-grid slots instead of recomputing them: the evaluation points
// coincide bitwise (B/(2M) rounds to exactly half of B/M, and
// float64(2i)·(B/(2M)) to exactly float64(i)·(B/M)), so the copied entries
// equal what recomputation would produce and results stay bit-identical.
func (it *Iterator) setResolution(m int) {
	prevBins := it.bins
	prevCl, prevCc, prevLoss := it.cl, it.cc, it.loss
	prev := [...][]float64{prevCl, prevCc, prevLoss, it.wl, it.wh, it.headL, it.tailL, it.headH, it.tailH}
	it.bins = m
	it.d = it.model.Buffer / float64(m)
	if prevBins <= 0 || m != 2*prevBins {
		prevCl, prevCc, prevLoss = nil, nil, nil
	}
	it.cl, it.cc, it.loss = it.gridTables(m, prevCl, prevCc, prevLoss)
	it.wl, it.wh = it.incrementPMFs(m, it.cl, it.cc)
	it.setStepTables()
	for _, b := range prev {
		it.scratch.putFloat(b)
	}
}

// setStepTables derives what a step reads from the increment pmfs wl and
// wh at the current resolution: their fold sums, and the spectra of
// w[0:2M) at the transform length (the window reads no other entry; see
// stepRaw).
func (it *Iterator) setStepTables() {
	m := it.bins
	it.headL, it.tailL = it.foldSums(m, it.wl)
	it.headH, it.tailH = it.foldSums(m, it.wh)
	it.scratch.pair.SetKernels(transformSize(m), it.wl[:2*m], it.wh[:2*m])
}

// transformSize is the step's transform length for M bins: the least power
// of two N ≥ 2M.
func transformSize(m int) int {
	return 1 << bits.Len(uint(2*m-1))
}

// foldSums returns the cumulative sums of the increment pmf w (length
// 2M+1, index l ↦ w(l−M)) that fold a step's mass leaving the grid into its
// end bins: from occupancy bin i = 0..M,
//
//	head[i] = Σ_{l ≤ M−i} w[l]   (the step ends at or below 0),
//	tail[i] = Σ_{l ≥ 2M−i} w[l]  (the step ends at or above B).
//
// Both are compensated running sums, the tail summed from the top so its
// smallest terms come first.
func (it *Iterator) foldSums(m int, w []float64) (head, tail []float64) {
	head = it.scratch.getFloat(m + 1)
	tail = it.scratch.getFloat(m + 1)
	var acc numerics.Accumulator
	for l := 0; l <= m; l++ {
		acc.Add(w[l])
		head[m-l] = acc.Sum()
	}
	acc = numerics.Accumulator{}
	for l := 2 * m; l >= m; l-- {
		acc.Add(w[l])
		tail[2*m-l] = acc.Sum()
	}
	return head, tail
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
	ql, qh := it.qlNext[:n], it.qhNext[:n]
	it.stepRaw(it.ql, it.qh, ql, qh)
	faultinject.Apply(faultinject.SolverConvolution, ql)
	faultinject.Apply(faultinject.SolverConvolution, qh)
	driftL, driftH, newLo, newHi := it.settle(ql, qh)
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
	it.counted(stepStart, driftL, driftH, newLo, newHi)
	return nil
}

// counted counts a committed iteration that began at start and reports it:
// the step count, time and mass drifts and the gap of its stepped bounds
// lo and hi to the Recorder, and a point to the Trace.
func (it *Iterator) counted(start time.Time, driftL, driftH, lo, hi float64) {
	it.iterations++
	if rec := it.cfg.Recorder; rec != nil {
		rec.Add(obs.MetricSolverSteps, 1)
		rec.Observe(obs.MetricSolverStepSeconds, time.Since(start).Seconds())
		rec.Observe(obs.MetricSolverMassDrift, math.Abs(driftL))
		rec.Observe(obs.MetricSolverMassDrift, math.Abs(driftH))
		rec.Set(obs.MetricSolverGap, relativeGap(lo, hi))
	}
	if it.cfg.Trace != nil {
		it.cfg.Trace(it.tracePoint(false))
	}
}

// stepRaw writes Eq. (19) for both processes at once, stepping the pmfs ql
// and qh into outL and outH (all of length M+1), before the clamp and
// renormalization of settle. The linear convolution q ⊛ w has support
// [0, 3M], its index k the occupancy (k−M)·d. Bins 1..M−1 are its entries
// M+1..2M−1, which read w[0:2M) only; the N-point circular convolution
// with w[0:2M), N ≥ 2M, equals them, because for k in that range neither
// k−N nor k+N lies in the support. Bins 0 and M gather everything at or
// below 0 and at or above B: exact O(M) sums over the fold tables, free of
// transform roundoff.
func (it *Iterator) stepRaw(ql, qh, outL, outH []float64) {
	m := it.bins
	y := it.scratch.pair.Convolve(ql, qh)
	outL[0], outL[m], outH[0], outH[m] = it.ends(ql, qh)
	for j := 1; j < m; j++ {
		outL[j], outH[j] = real(y[m+j]), imag(y[m+j])
	}
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
// footnote 3 of the paper). The jump history restarts (jump.go). It returns
// false if MaxBins would be exceeded.
func (it *Iterator) Refine() bool {
	if it.bins*2 > it.cfg.MaxBins {
		return false
	}
	it.plain = 0
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
	lo, hi := it.lossOf(it.ql, it.qh, 1, 1)
	it.lowerLoss = lo
	it.setUpper(hi)
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

// ends returns the mass one step moves the occupancy pmfs ql and qh to or
// below 0 and to or above B: the compensated sums Σ q[i]·head[i] and
// Σ q[i]·tail[i] over foldSums' tables, lower process first. The four sums
// are independent, so one loop runs them all.
func (it *Iterator) ends(ql, qh []float64) (lowL, highL, lowH, highH float64) {
	qh = qh[:len(ql)]
	headL, tailL := it.headL[:len(ql)], it.tailL[:len(ql)]
	headH, tailH := it.headH[:len(ql)], it.tailH[:len(ql)]
	var accLowL, accHighL, accLowH, accHighH numerics.Accumulator
	for i, v := range ql {
		w := qh[i]
		accLowL.Add(v * headL[i])
		accHighL.Add(v * tailL[i])
		accLowH.Add(w * headH[i])
		accHighH.Add(w * tailH[i])
	}
	return accLowL.Sum(), accHighL.Sum(), accLowH.Sum(), accHighH.Sum()
}

// settle finishes Eq. (20) on both processes' raw stepped pmfs, in place:
// bin 0, the transform's window, then bin M. It clamps the ~1-ulp negative
// values the transform can leave in the window and renormalizes each pmf
// to unit mass to stop roundoff drift over long runs, returning the
// pre-renormalization drifts (total−1) for the numeric-health watchdog and
// the loss rates of the settled pmfs. The clamp `if v <= 0 { v = 0 }` is
// math.Max(v, 0) bit for bit: −0 becomes +0 and NaN stays NaN.
func (it *Iterator) settle(ql, qh []float64) (driftL, driftH, lo, hi float64) {
	qh = qh[:len(ql)]
	var accL, accH numerics.Accumulator
	for j, v := range ql {
		if v <= 0 {
			v = 0
		}
		w := qh[j]
		if w <= 0 {
			w = 0
		}
		ql[j], qh[j] = v, w
		accL.Add(v)
		accH.Add(w)
	}
	totalL, totalH := accL.Sum(), accH.Sum()
	lo, hi = it.lossOf(ql, qh, unitScale(totalL), unitScale(totalH))
	return totalL - 1, totalH - 1, lo, hi
}

// unitScale is the factor that renormalizes a pmf of the given total mass
// to one, or 1 (a no-op) when the total is not positive.
func unitScale(total float64) float64 {
	if total > 0 {
		return 1 / total
	}
	return 1
}

// incrementPMFs builds the rounded-increment pmfs of Eqs. (21)–(22):
//
//	w_L(i) = Pr{W ∈ [i·d, (i+1)·d)}   (mass moved down: lower process)
//	w_H(i) = Pr{W ∈ ((i−1)·d, i·d]}   (mass moved up: upper process)
//
// with the tails beyond ±B lumped into the end bins (any step ≤ −B empties
// and ≥ +B fills the buffer regardless of the starting occupancy). The
// returned slices have length 2M+1; index i+M holds w(i). cl and cc are the
// cdf tables from gridTables at the same resolution.
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

// gridTables builds the rung's law tables in one pass over the 2M+2 grid
// points x = i·d, i = −M..M+1: cl holds the strict cdf Pr{W < x} and cc the
// non-strict Pr{W <= x} of the work increment, and for i = 0..M the same
// evaluations give loss[M−i] = E[W_l | Q = (M−i)·d], whose closed form reads
// the law at (M−i)·d/(λ−c) = x/(λ−c) (see gridPoint). When the previous
// rung's tables at resolution M/2 are supplied (a resolution doubling),
// every even point (i+M even, hence M−i even) copies its three entries
// instead of recomputing them — the evaluation points coincide bitwise,
// so the copies equal what recomputation would produce.
func (it *Iterator) gridTables(m int, prevCl, prevCc, prevLoss []float64) (cl, cc, loss []float64) {
	d := it.model.Buffer / float64(m)
	cl = it.scratch.getFloat(2*m + 2)
	cc = it.scratch.getFloat(2*m + 2)
	loss = it.scratch.getFloat(m + 1)
	reuse := len(prevCl) == m+2 && len(prevCc) == m+2 && len(prevLoss) == m/2+1
	tail := it.model.Interarrival.TailFunc()
	for i := -m; i <= m+1; i++ {
		idx := i + m
		withLoss := i >= 0 && i <= m
		if reuse && idx%2 == 0 {
			cl[idx], cc[idx] = prevCl[idx/2], prevCc[idx/2]
			if withLoss {
				loss[m-i] = prevLoss[(m-i)/2]
			}
			continue
		}
		var l float64
		cl[idx], cc[idx], l = it.gridPoint(float64(i)*d, tail, withLoss)
		if withLoss {
			loss[m-i] = l
		}
	}
	return cl, cc, loss
}

func clampNonneg(xs []float64) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

// gridPoint evaluates, in one pass over the marginal with one law
// evaluation per rate, the mixture distribution of the per-epoch work
// increment W = T·(λ−c) (Eq. 10) at x, Pr{W < x} and Pr{W <= x}, and, when
// withLoss is set (x >= 0), the expected loss E[W_l | Q = B − x] from the
// closed form derived in the paper (§II), generalized to any interarrival
// law:
//
//	E[W_l|Q=B−x] = Σ_{i: λ_i>c} π_i·(λ_i−c)·∫_{x/(λ_i−c)}^∞ Pr{T > t} dt
//
// which for the truncated Pareto reduces to the paper's
// θ/(α−1)·Σ π_i(λ_i−c)[(x/(θ(λ_i−c))+1)^(1−α) − (Tc/θ+1)^(1−α)]. tail is
// the law's TailFunc. The law has a continuous part and may have an atom
// at its cutoff Tc, so W inherits atoms at (λ_i−c)·Tc.
func (it *Iterator) gridPoint(x float64, tail func(t float64) (gt, ge, integral float64), withLoss bool) (strict, nonstrict, loss float64) {
	c := it.model.ServiceRate
	marg := it.model.Marginal
	var accS, accN, accL numerics.Accumulator
	for i := 0; i < marg.Len(); i++ {
		pi := marg.Prob(i)
		drift := marg.Rate(i) - c
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
			// W_i = T·drift > 0 a.s.; at x = 0 only the loss reads the law.
			if x < 0 || (x == 0 && !withLoss) {
				continue
			}
			gt, ge, integral := tail(x / drift)
			if x > 0 {
				accS.Add(pi * (1 - ge)) // Pr{W_i < x} = 1 − Pr{T >= t}
				accN.Add(pi * (1 - gt)) // Pr{W_i <= x} = 1 − Pr{T > t}
			}
			if withLoss {
				// E[(W_i − x)⁺] = drift·∫_{x/drift}^∞ Pr{T > t} dt.
				accL.Add(pi * drift * integral)
			}
		default: // drift < 0: W_i < 0 a.s.
			if x >= 0 {
				accS.Add(pi)
				accN.Add(pi)
				continue
			}
			gt, ge, _ := tail(x / drift) // t > 0; W_i <= x ⇔ T >= t
			accS.Add(pi * gt)            // Pr{W_i < x} = Pr{T > t}
			accN.Add(pi * ge)            // Pr{W_i <= x} = Pr{T >= t}
		}
	}
	return numerics.Clamp(accS.Sum(), 0, 1), numerics.Clamp(accN.Sum(), 0, 1), accL.Sum()
}

// ExpectedLossGivenOccupancy returns E[W_l | Q = x], the expected work lost
// in one interarrival interval starting from occupancy x (clamped to B):
// gridPoint's loss at B − x.
func (it *Iterator) ExpectedLossGivenOccupancy(x float64) float64 {
	b := it.model.Buffer
	if x > b {
		x = b
	}
	_, _, loss := it.gridPoint(b-x, it.model.Interarrival.TailFunc(), true)
	return loss
}

// lossOf evaluates Eq. (23)/(24) for both bound processes: the loss rate
// induced by an occupancy pmf q, namely Σ_j q(j)·E[W_l|Q=j·d] / (λ̄·E[T]).
// In the same pass it first scales each pmf in place by its factor, sl for
// ql and sh for qh; a factor of 1 leaves every value as it is.
func (it *Iterator) lossOf(ql, qh []float64, sl, sh float64) (lo, hi float64) {
	qh = qh[:len(ql)]
	loss := it.loss[:len(ql)]
	var accL, accH numerics.Accumulator
	for j, v := range ql {
		v *= sl
		w := qh[j] * sh
		ql[j], qh[j] = v, w
		if v != 0 {
			accL.Add(v * loss[j])
		}
		if w != 0 {
			accH.Add(w * loss[j])
		}
	}
	return accL.Sum() / it.arrivalWork, accH.Sum() / it.arrivalWork
}
