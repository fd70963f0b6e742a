package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"lrd/internal/dist"
	"lrd/internal/errctl"
	"lrd/internal/fluid"
	"lrd/internal/horizon"
	"lrd/internal/lrdest"
	"lrd/internal/numerics"
	"lrd/internal/obs"
	"lrd/internal/shuffle"
	"lrd/internal/solver"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// Table is a formatted experiment result: a header plus rows of cells,
// ready for TSV output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

func f(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// deg renders a cell's degradation reason for TSV output ("-" = none).
func deg(r solver.DegradeReason) string {
	if r == "" {
		return "-"
	}
	return string(r)
}

// Experiment is one reproducible unit of the paper's evaluation. Run
// observes ctx between parameter points: on cancellation or deadline expiry
// it returns the rows completed so far together with the context's error,
// so a sweep always produces partial, clearly-marked output instead of
// hanging or discarding finished work.
type Experiment struct {
	ID    string // e.g. "fig4"
	Title string // what the paper's figure/table shows
	Run   func(ctx context.Context, opts RunOptions) (Table, error)
}

// RunOptions controls experiment scale and per-point budgets.
type RunOptions struct {
	// Seed drives all randomness (trace synthesis, shuffling).
	Seed int64
	// Quick shrinks the grids for smoke tests and benches; the full grids
	// match the ranges in the paper's §III.
	Quick bool
	// Solver overrides the solver configuration (zero value = defaults).
	// Its MaxIterations field doubles as the per-point iteration budget.
	Solver solver.Config
	// PointTimeout is a per-point wall-clock budget. A pathological cell
	// (α→1, ρ→1, huge B) then yields a degraded bracketed row instead of
	// wedging the whole sweep. Zero means no per-point budget.
	PointTimeout time.Duration
	// Store, when non-nil, journals every completed sweep cell and replays
	// journaled cells on resume (see JournalStore).
	Store CellStore
	// Retry re-runs transiently failed or degraded cells (see RetryPolicy).
	Retry RetryPolicy
	// Model selects the registered traffic model (internal/source) every
	// sweep cell is realized as. The zero spec is the fluid identity — the
	// paper's model, bit-identical to the pre-registry code path.
	Model source.Spec
	// MarkovFit parameterizes the "markov" experiment's correlation fit
	// (the registry's markov-model parameters: horizon, components, samples,
	// iterations). Nil uses the registry defaults — the fit horizon falls
	// back to the reference source's correlated range.
	MarkovFit source.Params
	// Workers caps the in-process sweep worker pool (see
	// SweepConfig.Workers). Zero means one worker per CPU.
	Workers int
	// Remote, when non-nil, sends each cell's realize+solve to a remote
	// fleet instead of the in-process solver (see SweepConfig.Remote).
	Remote RemoteSolveFunc
	// WarmStarts chains cross-cell warm starts along the buffer axis (see
	// SweepConfig.WarmStarts).
	WarmStarts bool
}

// solverConfig returns the effective per-point solver configuration with
// the RunOptions budgets applied.
func (o RunOptions) solverConfig() solver.Config {
	cfg := o.Solver
	if o.PointTimeout > 0 {
		cfg.MaxDuration = o.PointTimeout
	}
	return cfg
}

// sweepConfig bundles the solver configuration with the traffic model and
// the durability layer for one experiment's sweeps. The key prefix carries
// everything outside the per-cell grid coordinates that determines cell
// results — experiment id, seed, solver-config hash, and the canonical
// model spec (name plus sorted parameters) — so a journal is only ever
// replayed into the run it belongs to and never across models.
func (o RunOptions) sweepConfig(id string) SweepConfig {
	cfg := o.solverConfig()
	return SweepConfig{
		Solver:  cfg,
		Model:   o.Model,
		Store:   o.Store,
		Retry:   o.Retry,
		Prefix:  fmt.Sprintf("%s|seed=%d|quick=%t|cfg=%s|model=%s|", id, o.Seed, o.Quick, solver.ConfigHash(cfg), o.Model.Key()),
		Workers: o.Workers,
		Remote:  o.Remote,
		// Warm sweeps namespace their own journal keys (see
		// LossVsBufferAndCutoff), so the prefix here stays shared.
		WarmStarts: o.WarmStarts,
	}
}

func (o RunOptions) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(o.Seed*1000003 + offset))
}

// grids returns (buffers, cutoffs) for the loss-surface experiments.
func (o RunOptions) surfaceGrids() (buffers, cutoffs []float64) {
	if o.Quick {
		return []float64{0.05, 0.2, 1},
			[]float64{0.1, 1, 10, math.Inf(1)}
	}
	// Paper: normalized buffers up to a few seconds; cutoff lags spanning
	// milliseconds to minutes plus the fully correlated case.
	return numerics.Logspace(0.01, 3, 9),
		append(numerics.Logspace(0.05, 100, 9), math.Inf(1))
}

func (o RunOptions) hurstGrid() []float64 {
	if o.Quick {
		return []float64{0.55, 0.75, 0.95}
	}
	return []float64{0.55, 0.65, 0.75, 0.85, 0.95}
}

func (o RunOptions) scaleGrid() []float64 {
	if o.Quick {
		return []float64{0.5, 1, 1.5}
	}
	return []float64{0.5, 0.75, 1, 1.25, 1.5}
}

func (o RunOptions) streamsGrid() []int {
	if o.Quick {
		return []int{1, 2, 5}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

// mtv and bellcore memoize the synthesized corpus per (seed, quick) so the
// fig* experiments share one synthesis.
func (o RunOptions) mtv() (TraceModel, error) {
	if o.Quick {
		return quickCorpus(o, "mtv")
	}
	return MTVModel(o.Seed)
}

func (o RunOptions) bellcore() (TraceModel, error) {
	if o.Quick {
		return quickCorpus(o, "bellcore")
	}
	return BellcoreModel(o.Seed)
}

// quickCorpus synthesizes small stand-ins for fast runs.
func quickCorpus(o RunOptions, which string) (TraceModel, error) {
	cfgs := map[string]struct {
		h, mean, cov, bw float64
	}{
		"mtv":      {0.83, 9.5222, 0.30, 1.0 / 30},
		"bellcore": {0.9, 1.3, 1.3, 0.01},
	}
	c := cfgs[which]
	tr, err := synthQuick(which, c.h, c.mean, c.cov, c.bw, o.rng(int64(len(which))))
	if err != nil {
		return TraceModel{}, err
	}
	return BuildTraceModel(tr, c.h)
}

// pointsTable renders solver points.
func pointsTable(header []string, pts []Point, cells func(Point) []string) Table {
	t := Table{Header: header}
	for _, p := range pts {
		t.Rows = append(t.Rows, cells(p))
	}
	return t
}

// Experiments returns the full registry, one entry per figure of the
// paper's evaluation plus the extension experiments documented in
// DESIGN.md.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Convergence of the discrete occupancy bounds (n = 5, 10, 30; M = 100)", Run: runFig2},
		{ID: "fig3", Title: "Marginal distributions of the MTV and Bellcore traces (50-bin histograms)", Run: runFig3},
		{ID: "fig4", Title: "Model loss vs normalized buffer and cutoff lag (MTV, util 0.8)", Run: runFig4},
		{ID: "fig5", Title: "Model loss vs normalized buffer and cutoff lag (Bellcore, util 0.4)", Run: runFig5},
		{ID: "fig6", Title: "External shuffling demonstration (correlation before/after)", Run: runFig6},
		{ID: "fig7", Title: "Shuffle-simulated loss vs buffer and block length (MTV, util 0.8)", Run: runFig7},
		{ID: "fig8", Title: "Shuffle-simulated loss vs buffer and block length (Bellcore, util 0.4)", Run: runFig8},
		{ID: "fig9", Title: "Loss vs cutoff lag for the MTV and Bellcore marginals (B/c = 1 s, util 2/3, θ = 20 ms, H = 0.9)", Run: runFig9},
		{ID: "fig10", Title: "Loss vs Hurst parameter and marginal scaling factor (MTV, util 0.8, B/c = 1 s, Tc = ∞)", Run: runFig10},
		{ID: "fig11", Title: "Loss vs Hurst parameter and number of superposed streams (MTV, util 0.8)", Run: runFig11},
		{ID: "fig12", Title: "Loss vs normalized buffer and marginal scaling factor (MTV, util 0.8)", Run: runFig12},
		{ID: "fig13", Title: "Loss vs normalized buffer and marginal scaling factor (Bellcore, util 0.4)", Run: runFig13},
		{ID: "fig14", Title: "Correlation-horizon scaling: per-buffer horizons and the B/Tc = γ fit (MTV shuffle surface)", Run: runFig14},
		{ID: "hurst", Title: "Hurst-parameter estimates for both traces (§III: H_MTV ≈ 0.83, H_BC ≈ 0.9)", Run: runHurst},
		{ID: "markov", Title: "Markovian model matched to the correlation up to CH predicts the same loss (§IV)", Run: runMarkov},
		{ID: "arqfec", Title: "ARQ vs FEC across loss-correlation time scales (§V)", Run: runARQFEC},
		{ID: "eq26", Title: "Analytic correlation horizon (Eq. 26) vs buffer size", Run: runEq26},
		{ID: "modelfit", Title: "Model-vs-shuffle-simulation agreement on the shared (B, Tc) grid (MTV, §III)", Run: runModelFit},
		{ID: "delay", Title: "Queueing-delay quantiles vs cutoff lag: the horizon governs delay too (extension)", Run: runDelay},
	}
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

func runFig2(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	if err := ctx.Err(); err != nil {
		return Table{}, err
	}
	snaps, err := BoundConvergence(tm, 0.8, 1.0, 100, []int{5, 10, 30})
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"iteration", "occupancy_s", "lower_cdf", "upper_cdf"}}
	for _, s := range snaps {
		for i := range s.Grid {
			t.Add(strconv.Itoa(s.Iteration), f(s.Grid[i]), f(s.LowerCDF[i]), f(s.UpperCDF[i]))
		}
	}
	return t, nil
}

func runFig3(_ context.Context, o RunOptions) (Table, error) {
	t := Table{Header: []string{"trace", "rate_mbps", "probability"}}
	for _, get := range []func() (TraceModel, error){o.mtv, o.bellcore} {
		tm, err := get()
		if err != nil {
			return Table{}, err
		}
		for i := 0; i < tm.Marginal.Len(); i++ {
			t.Add(tm.Trace.Name, f(tm.Marginal.Rate(i)), f(tm.Marginal.Prob(i)))
		}
	}
	return t, nil
}

func surfaceRun(ctx context.Context, o RunOptions, id string, get func() (TraceModel, error), util float64) (Table, error) {
	tm, err := get()
	if err != nil {
		return Table{}, err
	}
	buffers, cutoffs := o.surfaceGrids()
	pts, err := LossVsBufferAndCutoff(ctx, tm, util, buffers, cutoffs, o.sweepConfig(id))
	if err != nil && len(pts) == 0 {
		return Table{}, err
	}
	return pointsTable(
		[]string{"buffer_s", "cutoff_s", "loss", "lower", "upper", "converged", "degraded"},
		pts,
		func(p Point) []string {
			return []string{f(p.NormalizedBuffer), f(p.Cutoff), f(p.Loss), f(p.Lower), f(p.Upper), strconv.FormatBool(p.Converged), deg(p.Degraded)}
		}), err
}

func runFig4(ctx context.Context, o RunOptions) (Table, error) {
	return surfaceRun(ctx, o, "fig4", o.mtv, 0.8)
}
func runFig5(ctx context.Context, o RunOptions) (Table, error) {
	return surfaceRun(ctx, o, "fig5", o.bellcore, 0.4)
}

func runFig6(_ context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	rng := o.rng(6)
	lags := []int{1, 4, 16, 64, 256}
	maxLag := 256
	orig, err := lrdest.SampleAutocorrelation(tm.Trace.Rates, maxLag)
	if err != nil {
		return Table{}, err
	}
	blockBins := 32
	shuffled, err := shuffleSeries(tm.Trace.Rates, blockBins, rng)
	if err != nil {
		return Table{}, err
	}
	shufACF, err := lrdest.SampleAutocorrelation(shuffled, maxLag)
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"lag_bins", "acf_original", "acf_shuffled_block32"}}
	for _, l := range lags {
		t.Add(strconv.Itoa(l), f(orig[l]), f(shufACF[l]))
	}
	return t, nil
}

func shuffleRun(ctx context.Context, o RunOptions, id string, get func() (TraceModel, error), util float64, seedOff int64) (Table, []ShufflePoint, error) {
	tm, err := get()
	if err != nil {
		return Table{}, nil, err
	}
	buffers, cutoffs := o.surfaceGrids()
	blocks := make([]float64, 0, len(cutoffs))
	for _, tc := range cutoffs {
		blocks = append(blocks, tc) // block length in seconds == cutoff lag
	}
	pts, err := ShuffleLossSurface(ctx, tm.Trace, util, buffers, blocks, o.rng(seedOff), o.sweepConfig(id))
	if err != nil && len(pts) == 0 {
		return Table{}, nil, err
	}
	t := Table{Header: []string{"buffer_s", "block_s", "loss"}}
	for _, p := range pts {
		t.Add(f(p.NormalizedBuffer), f(p.BlockLen), f(p.Loss))
	}
	return t, pts, err
}

func runFig7(ctx context.Context, o RunOptions) (Table, error) {
	t, _, err := shuffleRun(ctx, o, "fig7", o.mtv, 0.8, 7)
	return t, err
}

func runFig8(ctx context.Context, o RunOptions) (Table, error) {
	t, _, err := shuffleRun(ctx, o, "fig8", o.bellcore, 0.4, 8)
	return t, err
}

func runFig9(ctx context.Context, o RunOptions) (Table, error) {
	mtv, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	bc, err := o.bellcore()
	if err != nil {
		return Table{}, err
	}
	var cutoffs []float64
	if o.Quick {
		cutoffs = append(numerics.Logspace(0.05, 20, 5), math.Inf(1))
	} else {
		cutoffs = append(numerics.Logspace(0.02, 100, 11), math.Inf(1))
	}
	t := Table{Header: []string{"marginal", "cutoff_s", "loss", "lower", "upper", "degraded"}}
	var sweepErr error
	for _, tc := range []struct {
		name string
		tm   TraceModel
	}{{"mtv", mtv}, {"bellcore", bc}} {
		// Fig. 9 normalizes the comparison: B/c = 1 s, util = 2/3,
		// θ = 20 ms, H = 0.9 for both marginals.
		pts, err := LossVsCutoffFixedTheta(ctx, tc.tm.Marginal, 2.0/3.0, 1.0, 0.02, 0.9, cutoffs, o.sweepConfig("fig9").Sub(tc.name))
		if err != nil && len(pts) == 0 && sweepErr == nil {
			return Table{}, err
		}
		sweepErr = err
		for _, p := range pts {
			t.Add(tc.name, f(p.Cutoff), f(p.Loss), f(p.Lower), f(p.Upper), deg(p.Degraded))
		}
	}
	return t, sweepErr
}

func runFig10(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	pts, err := LossVsHurstAndScale(ctx, tm, 0.8, 1.0, o.hurstGrid(), o.scaleGrid(), o.sweepConfig("fig10"))
	if err != nil && len(pts) == 0 {
		return Table{}, err
	}
	return pointsTable(
		[]string{"hurst", "scale", "loss", "lower", "upper", "degraded"},
		pts,
		func(p Point) []string {
			return []string{f(p.Hurst), f(p.Scale), f(p.Loss), f(p.Lower), f(p.Upper), deg(p.Degraded)}
		}), err
}

func runFig11(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	pts, err := LossVsHurstAndStreams(ctx, tm, 0.8, 1.0, o.hurstGrid(), o.streamsGrid(), o.sweepConfig("fig11"))
	if err != nil && len(pts) == 0 {
		return Table{}, err
	}
	return pointsTable(
		[]string{"hurst", "streams", "loss", "lower", "upper", "degraded"},
		pts,
		func(p Point) []string {
			return []string{f(p.Hurst), strconv.Itoa(p.Streams), f(p.Loss), f(p.Lower), f(p.Upper), deg(p.Degraded)}
		}), err
}

func bufferScaleRun(ctx context.Context, o RunOptions, id string, get func() (TraceModel, error), util float64) (Table, error) {
	tm, err := get()
	if err != nil {
		return Table{}, err
	}
	var buffers []float64
	if o.Quick {
		buffers = []float64{0.1, 1, 5}
	} else {
		buffers = numerics.Logspace(0.1, 5, 7)
	}
	pts, err := LossVsBufferAndScale(ctx, tm, util, buffers, o.scaleGrid(), o.sweepConfig(id))
	if err != nil && len(pts) == 0 {
		return Table{}, err
	}
	return pointsTable(
		[]string{"buffer_s", "scale", "loss", "lower", "upper", "degraded"},
		pts,
		func(p Point) []string {
			return []string{f(p.NormalizedBuffer), f(p.Scale), f(p.Loss), f(p.Lower), f(p.Upper), deg(p.Degraded)}
		}), err
}

func runFig12(ctx context.Context, o RunOptions) (Table, error) {
	return bufferScaleRun(ctx, o, "fig12", o.mtv, 0.8)
}
func runFig13(ctx context.Context, o RunOptions) (Table, error) {
	return bufferScaleRun(ctx, o, "fig13", o.bellcore, 0.4)
}

func runFig14(ctx context.Context, o RunOptions) (Table, error) {
	var pts []ShufflePoint
	if o.Quick {
		var err error
		_, pts, err = shuffleRun(ctx, o, "fig14", o.mtv, 0.8, 14)
		if err != nil {
			return Table{}, err
		}
	} else {
		// Fig. 14 needs block lengths extending far beyond the largest
		// buffer's horizon (the trace spans an hour), otherwise the
		// detected horizons saturate at the grid edge and bias the
		// scaling exponent upward.
		tm, err := o.mtv()
		if err != nil {
			return Table{}, err
		}
		buffers := numerics.Logspace(0.02, 1, 7)
		blocks := append(numerics.Logspace(0.05, 2000, 14), math.Inf(1))
		pts, err = ShuffleLossSurface(ctx, tm.Trace, 0.8, buffers, blocks, o.rng(14), o.sweepConfig("fig14"))
		if err != nil {
			return Table{}, err
		}
	}
	res, err := HorizonFromSurface(pts, 0.2)
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"buffer_s", "horizon_s", "gamma_fit", "exponent_fit"}}
	for i := range res.Buffers {
		t.Add(f(res.Buffers[i]), f(res.Horizons[i]), f(res.Fit.Gamma), f(res.Fit.Exponent))
	}
	return t, nil
}

func runHurst(_ context.Context, o RunOptions) (Table, error) {
	t := Table{Header: []string{"trace", "aggvar", "rs", "whittle", "abry_veitch", "gph", "paper"}}
	for _, tc := range []struct {
		get   func() (TraceModel, error)
		paper float64
	}{{o.mtv, 0.83}, {o.bellcore, 0.9}} {
		tm, err := tc.get()
		if err != nil {
			return Table{}, err
		}
		est := lrdest.EstimateAll(tm.Trace.Rates)
		t.Add(tm.Trace.Name, f(est.AggregatedVariance.Value()), f(est.RescaledRange.Value()),
			f(est.LocalWhittle.Value()), f(est.AbryVeitch.Value()), f(est.GPH.Value()), f(tc.paper))
	}
	return t, nil
}

func runMarkov(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	src, err := tm.Source(10) // a 10 s cutoff keeps the epoch variance finite
	if err != nil {
		return Table{}, err
	}
	// The Markovian source comes from the model registry, parameterized by
	// RunOptions.MarkovFit instead of a hardcoded fit call. With no
	// parameters the fit horizon defaults to the source's full correlated
	// range (10 s here, ≥ any correlation horizon of these queues).
	ms, err := source.Build("markov", src, o.MarkovFit)
	if err != nil {
		return Table{}, err
	}
	horizon := math.NaN()
	if fh, ok := ms.(interface{ FitHorizon() float64 }); ok {
		horizon = fh.FitHorizon()
	}
	if fq, ok := ms.(source.FitQuality); ok && o.Solver.Recorder != nil {
		o.Solver.Recorder.Set(obs.MetricSourceFitMaxError, fq.FitMaxError())
	}
	t := Table{Header: []string{"buffer_s", "loss_pareto", "loss_markov", "ratio", "fit_horizon_s"}}
	buffers := []float64{0.1, 0.5, 2}
	if o.Quick {
		buffers = []float64{0.1, 0.5}
	}
	for _, b := range buffers {
		if err := ctx.Err(); err != nil {
			return t, err // completed rows survive the interruption
		}
		q, err := solver.NewQueueNormalized(src, 0.8, b)
		if err != nil {
			return Table{}, err
		}
		orig, err := solver.SolveContext(ctx, q, o.solverConfig())
		if err != nil {
			return Table{}, err
		}
		// Same service rate and buffer, Markovian epoch law.
		mk, err := solver.NewModelFromSource(ms, q.ServiceRate, q.Buffer)
		if err != nil {
			return Table{}, err
		}
		alt, err := solver.SolveModelContext(ctx, mk, o.solverConfig())
		if err != nil {
			return Table{}, err
		}
		ratio := math.NaN()
		if orig.Loss > 0 {
			ratio = alt.Loss / orig.Loss
		}
		t.Add(f(b), f(orig.Loss), f(alt.Loss), f(ratio), f(horizon))
	}
	return t, nil
}

func runARQFEC(ctx context.Context, o RunOptions) (Table, error) {
	m, iv, err := onoffLossModel()
	if err != nil {
		return Table{}, err
	}
	src := fluidSource(m, iv)
	n := 2_000_000
	if o.Quick {
		n = 200_000
	}
	if err := ctx.Err(); err != nil {
		return Table{}, err
	}
	losses, err := errctl.GenerateLosses(src, n, 0.001, o.rng(15))
	if err != nil {
		return Table{}, err
	}
	pts, err := errctl.CompareAcrossTimescales(losses, []int{1, 10, 100, 1000, 10000},
		errctl.FECParams{BlockLen: 16, MaxRepair: 2}, o.rng(16))
	if err != nil {
		return Table{}, err
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].BlockLen < pts[j].BlockLen })
	t := Table{Header: []string{"corr_block_slots", "fec_residual_rate", "arq_mean_burst", "arq_requests_per_1k"}}
	for _, p := range pts {
		t.Add(strconv.Itoa(p.BlockLen), f(p.FEC.ResidualRate), f(p.ARQ.MeanBurstLen), f(p.ARQ.RequestsPerKP))
	}
	return t, nil
}

func runEq26(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	src, err := tm.Source(10)
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"buffer_s", "analytic_horizon_s"}}
	for _, b := range []float64{0.1, 0.3, 1, 3} {
		if err := ctx.Err(); err != nil {
			return t, err
		}
		q, err := solver.NewQueueNormalized(src, 0.8, b)
		if err != nil {
			return Table{}, err
		}
		ch, err := horizon.Analytic(q.Model(), 0.05)
		if err != nil {
			return Table{}, err
		}
		t.Add(f(b), f(ch))
	}
	return t, nil
}

// synthQuick builds a small lognormal-marginal synthetic trace for Quick
// runs.
func synthQuick(name string, h, mean, cov, binWidth float64, rng *rand.Rand) (traces.Trace, error) {
	return traces.Synthesize(traces.Config{
		Name:     name,
		Hurst:    h,
		Bins:     1 << 13,
		BinWidth: binWidth,
		Quantile: traces.LognormalQuantile(mean, cov),
	}, rng)
}

// shuffleSeries externally shuffles a series with the given block length
// in bins.
func shuffleSeries(xs []float64, blockBins int, rng *rand.Rand) ([]float64, error) {
	return shuffle.External(xs, blockBins, rng)
}

// onoffLossModel is the bursty loss-intensity source used by the ARQ/FEC
// experiment: mostly near-lossless with occasional intense loss episodes,
// correlated up to a 5 s cutoff.
func onoffLossModel() (dist.Marginal, dist.TruncatedPareto, error) {
	m, err := dist.NewMarginal([]float64{0.001, 0.6}, []float64{0.9, 0.1})
	if err != nil {
		return dist.Marginal{}, dist.TruncatedPareto{}, err
	}
	return m, dist.TruncatedPareto{Theta: 0.02, Alpha: 1.2, Cutoff: 5}, nil
}

// fluidSource wraps a (marginal, interarrival) pair, panicking on the
// impossible invalid case (inputs come from onoffLossModel).
func fluidSource(m dist.Marginal, iv dist.TruncatedPareto) fluid.Source {
	src, err := fluid.New(m, iv)
	if err != nil {
		panic(err)
	}
	return src
}

// runModelFit joins the Fig. 4 model surface and the Fig. 7 shuffle
// surface cell by cell, reporting the prediction ratio — the paper's
// "the loss predicted by the model is very close to that obtained with
// shuffling and simulation" check, quantified.
func runModelFit(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	buffers, cutoffs := o.surfaceGrids()
	model, err := LossVsBufferAndCutoff(ctx, tm, 0.8, buffers, cutoffs, o.sweepConfig("modelfit"))
	if err != nil {
		return Table{}, err
	}
	shufflePts, err := ShuffleLossSurface(ctx, tm.Trace, 0.8, buffers, cutoffs, o.rng(99), o.sweepConfig("modelfit").Sub("sim"))
	if err != nil {
		return Table{}, err
	}
	simLoss := map[[2]float64]float64{}
	for _, p := range shufflePts {
		simLoss[[2]float64{p.NormalizedBuffer, p.BlockLen}] = p.Loss
	}
	t := Table{Header: []string{"buffer_s", "cutoff_s", "loss_model", "loss_sim", "ratio"}}
	for _, p := range model {
		s, ok := simLoss[[2]float64{p.NormalizedBuffer, p.Cutoff}]
		if !ok {
			continue
		}
		ratio := math.NaN()
		if s > 0 && p.Loss > 0 {
			ratio = p.Loss / s
		}
		t.Add(f(p.NormalizedBuffer), f(p.Cutoff), f(p.Loss), f(s), f(ratio))
	}
	return t, nil
}

// runDelay extends the loss-centric analysis to delay: the occupancy
// distribution the solver already brackets yields waiting-time quantiles
// (delay = occupancy / service rate). Like the loss rate, the delay
// quantiles saturate once the cutoff lag passes the correlation horizon —
// the horizon is a property of the system, not of the metric chosen.
func runDelay(ctx context.Context, o RunOptions) (Table, error) {
	tm, err := o.mtv()
	if err != nil {
		return Table{}, err
	}
	var cutoffs []float64
	if o.Quick {
		cutoffs = []float64{0.1, 1, 10, math.Inf(1)}
	} else {
		cutoffs = append(numerics.Logspace(0.05, 100, 8), math.Inf(1))
	}
	t := Table{Header: []string{"cutoff_s", "delay_p50_s", "delay_p95_s", "delay_p99_s", "loss", "degraded"}}
	for _, tc := range cutoffs {
		if err := ctx.Err(); err != nil {
			return t, err // completed rows survive the interruption
		}
		src, err := tm.Source(tc)
		if err != nil {
			return Table{}, err
		}
		q, err := solver.NewQueueNormalized(src, 0.8, 1.0)
		if err != nil {
			return Table{}, err
		}
		res, err := solver.SolveContext(ctx, q, o.solverConfig())
		if err != nil {
			return Table{}, err
		}
		row := []string{f(tc)}
		for _, u := range []float64{0.5, 0.95, 0.99} {
			lo, hi := res.OccupancyQuantile(u)
			// Report the bracket midpoint as seconds of delay.
			row = append(row, f((lo+hi)/2/q.ServiceRate))
		}
		row = append(row, f(res.Loss), deg(res.Degraded))
		t.Add(row...)
	}
	return t, nil
}
