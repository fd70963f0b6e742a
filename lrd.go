// Package lrd is a Go implementation of the traffic model, queueing solver,
// and experimental methodology of
//
//	M. Grossglauser and J.-C. Bolot,
//	"On the Relevance of Long-Range Dependence in Network Traffic",
//	ACM SIGCOMM 1996 (extended version in IEEE/ACM ToN 7(5), 1999).
//
// The library centres on the paper's cutoff-correlated fluid traffic model
// — a renewal-modulated fluid whose rate is drawn i.i.d. at the epochs of a
// truncated-Pareto renewal process — and its very efficient bounded
// solver for the loss rate of a finite-buffer queue. Three aspects of the
// traffic are controlled independently: the marginal rate distribution, the
// Hurst parameter H = (3−α)/2 of the (asymptotically self-similar)
// correlation structure, and the cutoff lag Tc beyond which correlation
// vanishes.
//
// # Quick start
//
//	marginal := lrd.MustMarginal(
//		[]float64{2, 8, 16},        // Mb/s rate levels
//		[]float64{0.3, 0.5, 0.2},   // probabilities
//	)
//	src, err := lrd.NewSource(marginal, lrd.TruncatedPareto{
//		Theta: 0.016, Alpha: 1.2, Cutoff: 10, // H = 0.9, 10 s cutoff
//	})
//	// 80 % utilization, half a second of buffering.
//	q, err := lrd.NewQueueNormalized(src, 0.8, 0.5)
//	res, err := lrd.Solve(q, lrd.SolverConfig{})
//	fmt.Println(res.Loss, res.Lower, res.Upper)
//
// A solve is configured by its SolverConfig alone — telemetry and budgets
// are fields — and is solved under another traffic model by realizing the
// queue's reference source as that model first:
//
//	cfg := lrd.SolverConfig{
//		Recorder:    reg,             // obs metrics
//		MaxDuration: 5 * time.Second, // degrade, don't hang
//	}
//	src, err := lrd.ModelSpec{Name: "markov"}.Realize(q.Source) // §IV equivalent model
//	m, err := lrd.NewModelFromSource(src, q.ServiceRate, q.Buffer)
//	res, err := lrd.SolveModelContext(ctx, m, cfg)
//
// # Package map
//
//   - internal/fluid    — the traffic model (rates, covariance, sampling)
//   - internal/solver   — the bounded-discretization loss solver (§II)
//   - internal/dist     — truncated Pareto, hyperexponential, marginals
//   - internal/sim      — exact trace-driven and Monte-Carlo simulation
//   - internal/shuffle  — external/internal block shuffling (Fig. 6)
//   - internal/fgn      — exact fractional Gaussian noise
//   - internal/lrdest   — Hurst estimators (R/S, variance-time, Whittle, wavelet)
//   - internal/traces   — synthetic MTV/Bellcore stand-in traces
//   - internal/fit      — the trace→model pipeline (marginal, θ, Hurst)
//   - internal/api      — the typed /v1 wire contract and fleet client
//   - internal/horizon  — correlation-horizon estimation (Eq. 26, Fig. 14)
//   - internal/markov   — Markovian (hyperexponential) equivalent models (§IV)
//   - internal/source   — the model-agnostic traffic-source registry
//   - internal/core     — experiment orchestration for every figure
//   - internal/errctl   — the ARQ-vs-FEC time-scale example (§V)
//   - internal/obs      — telemetry: metrics, convergence traces, progress
//
// This package re-exports the types and functions a typical user needs;
// advanced users can reach the internal packages through the re-exported
// constructors here. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package lrd

import (
	"lrd/internal/ams"
	"lrd/internal/core"
	"lrd/internal/dist"
	"lrd/internal/errctl"
	"lrd/internal/fit"
	"lrd/internal/fluid"
	"lrd/internal/horizon"
	"lrd/internal/lrdest"
	"lrd/internal/markov"
	"lrd/internal/mmfq"
	"lrd/internal/obs"
	"lrd/internal/onoff"
	"lrd/internal/shuffle"
	"lrd/internal/sim"
	"lrd/internal/solver"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// Core model types.
type (
	// Marginal is a finite discrete fluid-rate distribution (Λ, Π).
	Marginal = dist.Marginal
	// TruncatedPareto is the paper's interarrival law (Eq. 6) with scale
	// Theta, tail index Alpha, and cutoff lag Cutoff.
	TruncatedPareto = dist.TruncatedPareto
	// Hyperexponential is a Markovian (phase-type) interarrival law.
	Hyperexponential = dist.Hyperexponential
	// Interarrival is the epoch-length contract every layer calls a law
	// through: CCDFBoth, IntegralCCDFFunc, Mean, SecondMoment, Upper,
	// ResidualCCDF, Sample, SampleResidual and Validate, nothing else.
	Interarrival = dist.Interarrival
	// Source is the cutoff-correlated fluid traffic source.
	Source = fluid.Source
	// Epoch is one constant-rate segment of a sample path.
	Epoch = fluid.Epoch
	// Queue is the finite-buffer fluid queue fed by a Source.
	Queue = solver.Queue
	// Model generalizes Queue to any Interarrival law.
	Model = solver.Model
	// SolverConfig tunes the numerical procedure; the zero value uses the
	// paper's settings (20 % bound gap, 1e-10 loss floor).
	SolverConfig = solver.Config
	// Result is a solved loss rate with its bracketing bounds.
	Result = solver.Result
	// Iterator exposes the solver step by step (Fig. 2).
	Iterator = solver.Iterator
	// Trace is a binned rate series.
	Trace = traces.Trace
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = traces.Config
	// TraceModel bundles a trace with fitted model ingredients.
	TraceModel = core.TraceModel
	// HurstEstimates holds the four estimators' outputs for one series.
	HurstEstimates = lrdest.Estimates
)

// Marginal constructors.
var (
	// NewMarginal builds a validated marginal from rate/probability slices.
	NewMarginal = dist.NewMarginal
	// MustMarginal is NewMarginal that panics on error.
	MustMarginal = dist.MustMarginal
	// MarginalFromSamples histograms a sample set (the paper uses 50 bins).
	MarginalFromSamples = dist.FromSamples
)

// Hurst/α conversions and calibration.
var (
	// HurstFromAlpha maps the Pareto tail index to H = (3−α)/2.
	HurstFromAlpha = dist.HurstFromAlpha
	// AlphaFromHurst is the inverse map α = 3−2H.
	AlphaFromHurst = dist.AlphaFromHurst
	// CalibrateTheta fits θ from a mean epoch duration (Eq. 25 at Tc = ∞).
	CalibrateTheta = dist.CalibrateTheta
)

// Source and queue constructors.
var (
	// NewSource builds a validated Source.
	NewSource = fluid.New
	// SourceFromTraceStats fits a Source from (marginal, H, mean epoch,
	// cutoff) the way the paper fits its traces.
	SourceFromTraceStats = fluid.FromTraceStats
	// NewQueue builds a queue in absolute units (service rate, buffer).
	NewQueue = solver.NewQueue
	// NewQueueNormalized builds a queue from utilization and a normalized
	// buffer size in seconds.
	NewQueueNormalized = solver.NewQueueNormalized
	// NewModel builds a general model over any Interarrival law.
	NewModel = solver.NewModel
	// NewHyperexponential builds a Markovian interarrival mixture.
	NewHyperexponential = dist.NewHyperexponential
)

// Solving. Each entry point takes the queue or model and one
// SolverConfig; the zero SolverConfig uses the paper's settings.
var (
	// Solve computes the stationary loss rate of a Queue.
	Solve = solver.Solve
	// SolveContext is Solve with cancellation, deadline, and budget
	// support: on interruption it returns the best-so-far bracketed Result
	// with Result.Degraded set rather than an error.
	SolveContext = solver.SolveContext
	// SolveModel computes the stationary loss rate of a general Model.
	SolveModel = solver.SolveModel
	// SolveModelContext is SolveModel with the same degrade-gracefully
	// contract as SolveContext.
	SolveModelContext = solver.SolveModelContext
	// NewIterator exposes the bound iteration step by step.
	NewIterator = solver.NewIterator
	// ErrNumeric is the sentinel matched (via errors.Is) by every numeric
	// watchdog violation the solver detects.
	ErrNumeric = solver.ErrNumeric
	// SolverConfigHash is a short stable hash of the result-affecting
	// solver-configuration fields — the cache-key component shared by the
	// sweep journal and the lrdserve solve cache.
	SolverConfigHash = solver.ConfigHash
)

// Robustness vocabulary: why a Result came back degraded, and the typed
// error carrying numeric-watchdog diagnoses.
type (
	// DegradeReason tags a Result that was returned before convergence.
	DegradeReason = solver.DegradeReason
	// NumericError is the typed error for numeric invariant violations.
	NumericError = solver.NumericError
)

// Observability: the telemetry surface of internal/obs re-exported for
// library users. A Recorder attached to a SolverConfig receives counters,
// gauges, and histograms from the solver hot path with no overhead when
// absent; a TracePoint stream captures per-iteration bound convergence.
type (
	// Recorder receives telemetry from instrumented code paths. A nil
	// Recorder keeps every instrumented path allocation-free.
	Recorder = obs.Recorder
	// MetricsRegistry is the standard in-memory Recorder: atomic counters,
	// gauges, and log-bucketed histograms, exportable as a JSON Snapshot.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-marshalable registry export.
	MetricsSnapshot = obs.Snapshot
	// TracePoint is one per-iteration convergence observation (solve id,
	// iteration, resolution, lower/upper bound, elapsed wall time). When
	// the solve's context carries a TraceContext, each point also carries
	// the trace id.
	TracePoint = solver.TracePoint
	// TraceContext identifies one causal chain (trace id + span id),
	// threaded through context.Context from entry points down to solver
	// steps and journal appends.
	TraceContext = obs.TraceContext
	// TraceSpan is one completed traced operation, emitted as a JSONL
	// record through a SpanSink.
	TraceSpan = obs.Span
	// SpanSink receives completed spans; attach one with
	// ContextWithSpanSink to make StartSpan live below it.
	SpanSink = obs.SpanSink
)

// Observability constructors and options.
var (
	// NewMetricsRegistry builds an empty MetricsRegistry.
	NewMetricsRegistry = obs.NewRegistry
	// NewTrace mints a root TraceContext for a new entry point.
	NewTrace = obs.NewTrace
	// NewTraceID mints a fresh 16-hex-digit trace id.
	NewTraceID = obs.NewTraceID
	// ContextWithTrace attaches a TraceContext to a context.
	ContextWithTrace = obs.ContextWithTrace
	// TraceFromContext returns the context's TraceContext, if any, without
	// allocating.
	TraceFromContext = obs.TraceFromContext
	// ContextWithSpanSink attaches a SpanSink; StartSpan below it emits
	// spans. A nil sink leaves the context unchanged.
	ContextWithSpanSink = obs.ContextWithSpanSink
	// StartSpan begins a traced operation and returns the child context
	// plus a finish function; with no sink attached it is allocation-free
	// and returns the context unchanged.
	StartSpan = obs.StartSpan
)

// DegradeReason values.
const (
	// DegradedCanceled: the context was canceled mid-solve.
	DegradedCanceled = solver.DegradedCanceled
	// DegradedDeadline: a deadline or wall-clock budget expired mid-solve.
	DegradedDeadline = solver.DegradedDeadline
	// DegradedIterations: the iteration budget ran out.
	DegradedIterations = solver.DegradedIterations
	// DegradedStalled: the bounds stopped moving at maximum resolution.
	DegradedStalled = solver.DegradedStalled
)

// Simulation and shuffling.
var (
	// SimulateTrace drives the exact fluid queue with a binned rate trace.
	SimulateTrace = sim.RunBinnedTrace
	// MonteCarloLoss estimates loss by simulating the renewal model.
	MonteCarloLoss = sim.MonteCarloLoss
	// ShuffleExternal permutes blocks of a series, destroying correlation
	// beyond the block length (Fig. 6).
	ShuffleExternal = shuffle.External
	// ShuffleInternal permutes samples within blocks.
	ShuffleInternal = shuffle.Internal
)

// Trace synthesis and Hurst estimation.
var (
	// SynthesizeTrace builds a trace from an FGN core and a marginal
	// quantile transform.
	SynthesizeTrace = traces.Synthesize
	// LognormalQuantile builds an inverse-CDF marginal transform from a
	// mean and coefficient of variation.
	LognormalQuantile = traces.LognormalQuantile
	// MTVTrace and BellcoreTrace are the built-in stand-ins for the
	// paper's proprietary traces.
	MTVTrace = traces.MTV
	// BellcoreTrace is the Bellcore Ethernet stand-in.
	BellcoreTrace = traces.Bellcore
	// EstimateHurst runs every estimator on a series, reporting each
	// outcome independently (see lrdest.Estimates.Median for the
	// consensus value).
	EstimateHurst = lrdest.EstimateAll
)

// Trace→prediction pipeline: the end-to-end fit (histogram marginal,
// mean-epoch θ calibration, Hurst estimation) and the inverse
// capacity-planning solve over it — "what is the minimal buffer (or
// service rate) meeting a loss SLO?" as a bracketed monotone root-find
// over warm-started forward solves.
type (
	// FitOptions tunes FitTrace (histogram bins, estimator choice, Hurst
	// override, cutoff, target model).
	FitOptions = fit.Options
	// FitResult is a completed fit: the wire-shaped summary plus the
	// parsed ingredients; Reference/Realize rebuild the solvable source.
	FitResult = fit.Result
	// ProvisionOptions states the inverse problem: the SLO, the
	// provisioned dimension, the fixed dimension, and the search bracket.
	ProvisionOptions = core.ProvisionOptions
	// Provisioned is the inverse solve's answer: the minimal feasible
	// value, its proven loss bound, and the infeasible bracket point
	// below it as proof of minimality.
	Provisioned = core.Provisioned
	// ProvisionInfeasibleError reports an SLO unreachable anywhere in the
	// search bracket, with the best probed point as evidence.
	ProvisionInfeasibleError = core.InfeasibleError
)

// Trace→prediction entry points and provisioning targets.
var (
	// FitTrace fits the paper's model ingredients to a binned rate trace.
	FitTrace = fit.Trace
	// Provision answers the capacity-planning question for a realized
	// source: the minimal buffer (or service rate) meeting a loss SLO.
	Provision = core.Provision
)

// Provisioning targets for ProvisionOptions.Target.
const (
	// ProvisionTargetBuffer provisions the minimal normalized buffer at a
	// fixed utilization or service rate (the default target).
	ProvisionTargetBuffer = core.TargetBuffer
	// ProvisionTargetService provisions the minimal service rate at a
	// fixed buffer.
	ProvisionTargetService = core.TargetService
)

// Correlation-horizon analysis.
var (
	// CorrelationHorizon evaluates the paper's closed form (Eq. 26).
	CorrelationHorizon = horizon.Analytic
	// HorizonFromCurve detects the horizon on a loss-vs-cutoff curve.
	HorizonFromCurve = horizon.FromCurve
)

// Model-agnostic traffic sources: the registry that realizes a reference
// cutoff-Pareto source as any named traffic model (fluid, onoff, markov,
// mmfq, or a user-registered one) behind one Source interface. The solver
// accepts any TrafficSource via NewModelFromSource/NewModelNormalized; the
// sweep layer accepts a ModelSpec via SweepConfig.Model and namespaces its
// journal keys by it.
type (
	// TrafficSource is the model-agnostic stationary source contract.
	TrafficSource = source.Source
	// TrafficModel is one registry entry: a named, documented builder.
	TrafficModel = source.Model
	// ModelSpec names a registered model plus its parameters; the zero
	// value is the fluid identity (bit-identical to the paper's model).
	ModelSpec = source.Spec
	// ModelParams is the free-form numeric parameter map a builder takes.
	ModelParams = source.Params
	// ModelFitQuality is implemented by fitted sources that can report
	// their sup-norm correlation-fit error.
	ModelFitQuality = source.FitQuality
	// ModelOverflowOracle is implemented by sources with an analytic
	// overflow probability (the mmfq cross-check oracle).
	ModelOverflowOracle = source.OverflowOracle
)

// Traffic-model registry operations and source-generic constructors.
var (
	// RegisterModel adds a model to the registry (e.g. from user code).
	RegisterModel = source.Register
	// BuildModel realizes a registered model against a reference source.
	BuildModel = source.Build
	// ModelNames lists the registered model names, sorted.
	ModelNames = source.Names
	// ParseModelSpec parses a single "-model"/"-model-params" flag pair.
	ParseModelSpec = source.ParseSpec
	// ParseModelSpecs parses a comma-separated model list.
	ParseModelSpecs = source.ParseSpecs
	// NewFluidSource wraps the paper's fluid source as a TrafficSource.
	NewFluidSource = source.NewFluid
	// NewModelFromSource builds a solver Model from any TrafficSource in
	// absolute units (service rate, buffer).
	NewModelFromSource = solver.NewModelFromSource
	// NewModelNormalized builds a solver Model from any TrafficSource from
	// utilization and a normalized buffer size in seconds.
	NewModelNormalized = solver.NewModelNormalized
	// GenerateBinnedFromSource samples a binned rate trace from any
	// TrafficSource (stationary start).
	GenerateBinnedFromSource = source.GenerateBinned
)

// Markovian equivalent modeling (§IV).
var (
	// FitMarkovCorrelation fits a sum of exponentials to a correlation
	// function.
	FitMarkovCorrelation = markov.FitCorrelation
	// MarkovEquivalentModel swaps a model's epoch law for a Markovian one
	// matching its correlation up to a horizon.
	MarkovEquivalentModel = markov.EquivalentModel
)

// Crash-safe sweeps: the durability layer every parameter sweep accepts.
// A sweep configured with a journal-backed CellStore checkpoints each cell
// as it completes and, reopened with resume, skips the journaled cells —
// an interrupted sweep finishes from where it stopped with a result
// byte-identical to an uninterrupted run. The RetryPolicy re-runs cells
// that failed or degraded for transient reasons (deadline, cancellation,
// numeric-watchdog trips) with exponential backoff.
type (
	// SweepConfig bundles a SolverConfig with the optional durability
	// layer (cell store, retry policy, key namespace) for one sweep.
	SweepConfig = core.SweepConfig
	// CellStore persists per-cell sweep outcomes and replays them on
	// resume.
	CellStore = core.CellStore
	// JournalStore is the CellStore backed by an append-only fsync'd
	// JSONL journal.
	JournalStore = core.JournalStore
	// JournalStoreOptions configures OpenJournalStore.
	JournalStoreOptions = core.JournalStoreOptions
	// RetryPolicy bounds the re-execution of transiently failed or
	// degraded sweep cells, waiting between attempts by exponential
	// backoff with full jitter capped at 5 s.
	RetryPolicy = core.RetryPolicy
)

// Crash-safe sweep constructors.
var (
	// Sweep wraps a bare SolverConfig into a SweepConfig with no
	// durability layer — the zero-migration path for direct callers.
	Sweep = core.Sweep
	// OpenJournalStore opens (or, with resume, replays) a cell journal.
	OpenJournalStore = core.OpenJournalStore
)

// Experiment orchestration (the figures of the paper's §III).
var (
	// BuildTraceModel fits model ingredients to a trace.
	BuildTraceModel = core.BuildTraceModel
	// MTVModel and BellcoreModel synthesize and fit the standard corpus.
	MTVModel = core.MTVModel
	// BellcoreModel is the Bellcore counterpart of MTVModel.
	BellcoreModel = core.BellcoreModel
	// LossVsBufferAndCutoff reproduces Figs. 4–5.
	LossVsBufferAndCutoff = core.LossVsBufferAndCutoff
	// LossVsCutoffFixedTheta reproduces Fig. 9.
	LossVsCutoffFixedTheta = core.LossVsCutoffFixedTheta
	// LossVsHurstAndScale reproduces Fig. 10.
	LossVsHurstAndScale = core.LossVsHurstAndScale
	// LossVsHurstAndStreams reproduces Fig. 11.
	LossVsHurstAndStreams = core.LossVsHurstAndStreams
	// LossVsBufferAndScale reproduces Figs. 12–13.
	LossVsBufferAndScale = core.LossVsBufferAndScale
	// ShuffleLossSurface reproduces Figs. 7–8.
	ShuffleLossSurface = core.ShuffleLossSurface
	// HorizonFromSurface reproduces the Fig. 14 analysis.
	HorizonFromSurface = core.HorizonFromSurface
	// BoundConvergence reproduces Fig. 2.
	BoundConvergence = core.BoundConvergence
)

// Classical baselines and source constructions.
var (
	// OnOffAggregate superposes heavy-tailed on/off sources (Willinger et
	// al.), the paper's cited physical explanation of LRD.
	OnOffAggregate = onoff.Aggregate
	// GenerateLosses derives a correlated binary loss process from a
	// fluid source whose rates are loss intensities.
	GenerateLosses = errctl.GenerateLosses
	// EvaluateFEC applies a block erasure code to a loss sequence.
	EvaluateFEC = errctl.EvaluateFEC
	// EvaluateARQ measures burst structure and feedback cost.
	EvaluateARQ = errctl.EvaluateARQ
	// CompareErrorControl sweeps the loss-correlation time scale (§V).
	CompareErrorControl = errctl.CompareAcrossTimescales
)

// Baseline and example types.
type (
	// AMSQueue is the Anick–Mitra–Sondhi exponential on/off fluid queue,
	// the classical short-range-dependent baseline (closed form).
	AMSQueue = ams.OnOffQueue
	// OnOffParams parameterizes heavy-tailed on/off sources.
	OnOffParams = onoff.SourceParams
	// FECParams is a block erasure code (n, kmax).
	FECParams = errctl.FECParams
	// MMFQModulator is a finite CTMC with per-state fluid rates, the
	// input of the spectral Markov-modulated fluid queue engine.
	MMFQModulator = mmfq.Modulator
	// MMFQSolution is the spectral buffer-content distribution.
	MMFQSolution = mmfq.Solution
)

// Spectral Markov-modulated fluid queue engine (generalized AMS/Mitra).
var (
	// SolveMMFQ computes the infinite-buffer content distribution of a
	// Markov-modulated fluid queue by spectral decomposition; its overflow
	// probability at B upper-bounds the finite-buffer loss (footnote 2 of
	// the paper).
	SolveMMFQ = mmfq.Solve
	// NSourceOnOff builds the modulator of N superposed exponential
	// on/off sources (the Anick–Mitra–Sondhi setting).
	NSourceOnOff = mmfq.NSourceOnOff
	// CriticalTimeScale computes the Ryu–Elwalid large-deviations
	// analogue of the correlation horizon (§IV).
	CriticalTimeScale = horizon.CriticalTimeScale
)
