// Package core orchestrates the paper's experiments: it binds traces to
// fluid models the way §III describes (50-bin histogram marginal, θ
// calibrated from the mean epoch duration, α from the Hurst parameter) and
// runs the parameter sweeps behind every figure of the evaluation. Each
// experiment function returns plain row data; the cmd/ tools and the bench
// harness format it.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/obs"
	"lrd/internal/resilient"
	"lrd/internal/solver"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// HistogramBins is the marginal resolution the paper uses for all
// experiments ("We set the number of bins to 50 in all experiments").
const HistogramBins = 50

// TraceModel bundles a trace with the fitted model ingredients.
type TraceModel struct {
	Trace     traces.Trace
	Marginal  dist.Marginal // 50-bin histogram marginal
	Hurst     float64       // Hurst parameter (measured or imposed)
	MeanEpoch float64       // mean epoch duration in seconds
}

// BuildTraceModel fits the model ingredients to a trace at the given Hurst
// parameter in (0.5, 1) — the paper quotes its Whittle/wavelet estimates;
// fit.Trace estimates one from the trace.
func BuildTraceModel(tr traces.Trace, hurst float64) (TraceModel, error) {
	if len(tr.Rates) == 0 {
		return TraceModel{}, errors.New("core: empty trace")
	}
	if !(hurst > 0.5 && hurst < 1) {
		return TraceModel{}, fmt.Errorf("core: Hurst %v outside (0.5, 1) (fit.Trace estimates one from the trace)", hurst)
	}
	m, err := tr.Marginal(HistogramBins)
	if err != nil {
		return TraceModel{}, err
	}
	epoch, err := tr.MeanEpoch(HistogramBins)
	if err != nil {
		return TraceModel{}, err
	}
	return TraceModel{Trace: tr, Marginal: m, Hurst: hurst, MeanEpoch: epoch}, nil
}

// Source builds the cutoff-correlated fluid source for this trace model
// with the given cutoff lag (seconds; math.Inf(1) for no cutoff): α = 3−2H
// and θ calibrated so the untruncated mean epoch matches the trace's (§III).
func (tm TraceModel) Source(cutoff float64) (fluid.Source, error) {
	return tm.SourceWithHurst(tm.Hurst, cutoff)
}

// SourceWithHurst builds a source with an overridden Hurst parameter but θ
// calibrated at the model's nominal Hurst value — the protocol of the
// paper's Figs. 10–11 ("we use the same θ in the entire experiment, by
// matching the average interval length for the nominal Hurst parameter").
func (tm TraceModel) SourceWithHurst(hurst, cutoff float64) (fluid.Source, error) {
	if !(hurst > 0.5 && hurst < 1) {
		return fluid.Source{}, fmt.Errorf("core: Hurst %v outside (0.5, 1)", hurst)
	}
	alphaNominal := dist.AlphaFromHurst(tm.Hurst)
	theta, err := dist.CalibrateTheta(alphaNominal, tm.MeanEpoch)
	if err != nil {
		return fluid.Source{}, err
	}
	return fluid.New(tm.Marginal, dist.TruncatedPareto{
		Theta:  theta,
		Alpha:  dist.AlphaFromHurst(hurst),
		Cutoff: cutoff,
	})
}

// MTVModel synthesizes the MTV stand-in trace and fits its model using the
// paper's quoted H = 0.83.
func MTVModel(seed int64) (TraceModel, error) {
	tr, err := traces.MTV(newRand(seed))
	if err != nil {
		return TraceModel{}, err
	}
	return BuildTraceModel(tr, 0.83)
}

// BellcoreModel synthesizes the Bellcore stand-in trace and fits its model
// using the paper's quoted H = 0.9.
func BellcoreModel(seed int64) (TraceModel, error) {
	tr, err := traces.Bellcore(newRand(seed))
	if err != nil {
		return TraceModel{}, err
	}
	return BuildTraceModel(tr, 0.9)
}

// Point is one cell of a loss surface. Fields that do not vary in a given
// experiment hold that experiment's fixed value.
type Point struct {
	NormalizedBuffer float64 // B/c in seconds
	Cutoff           float64 // Tc in seconds (math.Inf(1) = no cutoff)
	Hurst            float64
	Scale            float64 // marginal scaling factor a
	Streams          int     // number of superposed streams n
	Loss             float64
	Lower, Upper     float64
	Converged        bool
	// Degraded is nonempty when this cell's solve stopped early (deadline,
	// cancellation, or budget exhaustion); the bounds still bracket the
	// true loss.
	Degraded solver.DegradeReason
}

// parallelMap runs f over n indices on a bounded worker pool and returns
// the first error. When ctx is canceled, dispatch stops, in-flight cells
// finish, and the returned error is ctx.Err(); f records its own results,
// so callers can emit partial, clearly-marked results instead of
// discarding the sweep.
//
// A non-nil rec receives the sweep telemetry: cells planned/started/
// completed, per-cell wall time, worker-pool size, and accumulated busy
// time (worker utilization = busy seconds / (workers × sweep seconds)).
func parallelMap(ctx context.Context, rec obs.Recorder, workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if rec != nil {
		rec.Add(obs.MetricCoreCellsPlanned, float64(n))
		rec.Set(obs.MetricCoreWorkers, float64(workers))
		sweepStart := time.Now()
		defer func() {
			rec.Observe(obs.MetricCoreSweepSeconds, time.Since(sweepStart).Seconds())
		}()
	}
	// An internal cancel lets an erroring worker unblock the dispatcher
	// (which would otherwise wait forever on the unbuffered jobs send).
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var cellStart time.Time
				if rec != nil {
					rec.Add(obs.MetricCoreCellsStarted, 1)
					cellStart = time.Now()
				}
				err := f(i)
				if rec != nil {
					d := time.Since(cellStart).Seconds()
					rec.Observe(obs.MetricCoreCellSeconds, d)
					rec.Add(obs.MetricCoreWorkerBusySecond, d)
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					cancel()
					return
				}
				if rec != nil {
					rec.Add(obs.MetricCoreCellsCompleted, 1)
				}
			}
		}()
	}
	var ctxErr error
dispatch:
	for i := 0; i < n; i++ {
		// select picks at random among ready cases, so with a worker
		// already waiting it could still send after cancellation.
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return ctxErr
	}
}

// cellValue is the result of one sweep cell: a solved Point or a simulated
// ShufflePoint.
type cellValue interface {
	// transient reports an outcome a re-run may improve: it is retried
	// under SweepConfig.Retry and never journaled as complete.
	transient() bool
}

// transient is true for a retryable degradation (deadline, cancellation).
func (p Point) transient() bool { return p.Degraded.Retryable() }

// transient is false: a trace simulation is deterministic.
func (ShufflePoint) transient() bool { return false }

// gridSweep is the durable execution engine under every sweep, solved or
// simulated: it runs the n cells of a grid as chains on the parallelMap
// worker pool and returns the completed cells in index order. A chain's
// cells execute in order, threading a warm-start seed from every freshly
// computed cell into its successor; chains run in parallel, so the
// parallelMap scheduling unit — and its started/completed telemetry — is a
// chain. A cold sweep passes one chain per cell (cellChains). key(i) must
// identify cell i within cfg.Prefix's namespace.
//
// Every cell goes through runCell, so journaled cells replay their
// committed results untouched and leases are honored. A replayed (resumed
// or adopted) cell carries no occupancy vectors, so it breaks its chain —
// the next cell starts cold — which is exactly the "warm starts never
// change committed results, only iteration counts" contract.
func gridSweep[C cellValue](ctx context.Context, cfg SweepConfig, n int, chains [][]int, key func(int) string, compute func(ctx context.Context, i int, seed *solver.Seed) (C, *solver.Seed, error)) ([]C, error) {
	rec := cfg.Solver.Recorder
	out := make([]C, n)
	done := make([]bool, n) // written by workers, read after the pool drains
	err := parallelMap(ctx, rec, cfg.Workers, len(chains), func(ci int) error {
		if len(chains[ci]) > 1 && rec != nil {
			rec.Add(obs.MetricCoreWarmChains, 1)
		}
		var seed *solver.Seed
		for _, i := range chains[ci] {
			var next *solver.Seed
			v, err := runCell(ctx, cfg, key(i), func(ctx context.Context) (C, error) {
				v, ns, cerr := compute(ctx, i, seed)
				next = ns
				return v, cerr
			})
			if err != nil {
				return err
			}
			out[i], done[i] = v, true
			if next == nil && seed != nil && rec != nil {
				rec.Add(obs.MetricCoreWarmChainBreaks, 1)
			}
			seed = next
		}
		return nil
	})
	kept := out[:0]
	for i, v := range out {
		if done[i] {
			kept = append(kept, v)
		}
	}
	return kept, err
}

// cellChains is the cold schedule of an n-cell grid: one chain per cell.
func cellChains(n int) [][]int {
	chains := make([][]int, n)
	for i := range chains {
		chains[i] = []int{i}
	}
	return chains
}

// runCell executes one sweep cell durably:
//
//  1. a cell already in the store (journaled by a previous run under the
//     same key) is returned without recomputation;
//  2. when the store coordinates ownership (LeaseClaimer, i.e. a shared
//     journal with other worker processes on it), the cell is either
//     adopted — another worker completed it while we waited — or computed
//     under an exclusive lease that Store consumes on completion and that
//     is released when the outcome stayed transient;
//  3. a computed cell that is final — clean, or degraded for a terminal
//     reason that a re-run would deterministically reproduce — is
//     journaled and returned;
//  4. a transient outcome — a retryable degradation (deadline,
//     cancellation) or a retryable error (numeric-watchdog trip) — is
//     re-attempted under cfg.Retry with exponential backoff, and is never
//     journaled as complete, so a resumed sweep recomputes it.
//
// Store write failures are returned as errors: losing durability silently
// would defeat the journal.
func runCell[C cellValue](ctx context.Context, cfg SweepConfig, key string, compute func(context.Context) (C, error)) (C, error) {
	rec := cfg.Solver.Recorder
	fullKey := cfg.Prefix + key
	var zero C
	// Every cell is a tracing entry point: the cell span becomes the parent
	// of the lease, solver, and journal-append spans below it. When no span
	// sink rides the context this is free.
	ctx, finishCell := obs.StartSpan(ctx, "core.cell")
	outcome := "computed"
	if obs.Traced(ctx) {
		defer func() { finishCell(map[string]string{"key": fullKey, "outcome": outcome}) }()
	}
	if cfg.Store != nil {
		if raw, ok := cfg.Store.Lookup(fullKey); ok {
			var v C
			if err := json.Unmarshal(raw, &v); err == nil {
				if rec != nil {
					rec.Add(obs.MetricCoreCellsResumed, 1)
				}
				outcome = "resumed"
				return v, nil
			}
			// Undecodable cached value (journal written by an incompatible
			// schema): recompute rather than fail the sweep.
		}
	}
	claimer, leased := cfg.Store.(LeaseClaimer)
	if !leased {
		return computeCell(ctx, cfg, fullKey, compute)
	}
	leaseCtx, finishLease := obs.StartSpan(ctx, "lease.acquire")
	raw, acquired, err := claimer.Acquire(leaseCtx, fullKey)
	if obs.Traced(ctx) {
		finishLease(map[string]string{"key": fullKey, "acquired": strconv.FormatBool(acquired)})
	}
	if err != nil {
		outcome = "error"
		return zero, err
	}
	if !acquired {
		// Another worker computed the cell; adopt its result. An
		// undecodable value here means the fleet is running incompatible
		// schemas — fail loudly rather than silently double-compute.
		var v C
		if uerr := json.Unmarshal(raw, &v); uerr != nil {
			outcome = "error"
			return zero, fmt.Errorf("core: adopting cell %q from a peer worker: %w", fullKey, uerr)
		}
		if rec != nil {
			rec.Add(obs.MetricCoreCellsAdopted, 1)
		}
		outcome = "adopted"
		return v, nil
	}
	v, err := computeCell(ctx, cfg, fullKey, compute)
	if err != nil {
		outcome = "error"
	}
	// Store consumes the lease on completion, making this a no-op; when the
	// outcome stayed transient (or errored) it hands the lease back so
	// another worker — or a resumed run — can take the cell without waiting
	// out the TTL.
	if rerr := claimer.Release(fullKey); rerr != nil && err == nil {
		err = rerr
	}
	return v, err
}

// computeCell is runCell's compute-and-retry loop (steps 3 and 4 of the
// runCell contract).
func computeCell[C cellValue](ctx context.Context, cfg SweepConfig, fullKey string, compute func(context.Context) (C, error)) (C, error) {
	rec := cfg.Solver.Recorder
	var zero C
	for attempt := 1; ; attempt++ {
		v, err := compute(ctx)
		if err == nil && !v.transient() {
			// Final: clean, or a terminal degradation a re-run would
			// deterministically reproduce.
			if cfg.Store != nil {
				_, finishAppend := obs.StartSpan(ctx, "journal.append")
				serr := cfg.Store.Store(fullKey, v)
				if obs.Traced(ctx) {
					finishAppend(map[string]string{"key": fullKey})
				}
				if serr != nil {
					return zero, serr
				}
			}
			return v, nil
		}
		if err != nil && cfg.Store != nil {
			if serr := cfg.Store.Fail(fullKey, attempt, err); serr != nil {
				return zero, serr
			}
		}
		retryable := err == nil || solver.RetryableError(err)
		if !retryable || attempt >= cfg.Retry.attempts() || ctx.Err() != nil {
			if err != nil {
				return zero, err
			}
			// A transiently degraded cell keeps its best-so-far bracket in
			// the partial table but is not journaled as complete.
			return v, nil
		}
		if rec != nil {
			rec.Add(obs.MetricCoreCellsRetried, 1)
		}
		if serr := resilient.Sleep(ctx, cfg.Retry.backoff(attempt)); serr != nil {
			if err != nil {
				return zero, err
			}
			return v, nil
		}
	}
}

// solveCell runs the solver on one cell of traffic model src, warm-started
// from seed when it is non-nil (a nil seed solves cold). It returns the
// cell's bracket and the seed for its next larger-buffer neighbor (nil when
// the result carries no usable occupancy vectors). Cancellation or budget
// expiry never errors: the cell comes back with its best-so-far bracket
// and a nonempty Degraded reason.
func solveCell(ctx context.Context, src source.Source, util, nbuf float64, cfg solver.Config, seed *solver.Seed) (Point, *solver.Seed, error) {
	m, err := solver.NewModelNormalized(src, util, nbuf)
	if err != nil {
		return Point{}, nil, err
	}
	res, err := solver.SolveModelSeeded(ctx, m, cfg, seed)
	if err != nil {
		return Point{}, nil, err
	}
	next := solver.SeedFromResult(m, res)
	if next != nil && seed != nil && seed.Iterations > next.Iterations {
		// Keep the chain head's cost as the running cold-cost estimate for
		// the iterations-saved metric.
		next.Iterations = seed.Iterations
	}
	return Point{
		Loss:      res.Loss,
		Lower:     res.Lower,
		Upper:     res.Upper,
		Converged: res.Converged,
		Degraded:  res.Degraded,
	}, next, nil
}

// atReference gives a solved cell its grid coordinates: the normalized
// buffer it was solved at and the cutoff and Hurst parameter of the
// reference source its model was realized from, at unit scale and one
// stream, so every traffic model's cells land in the same table rows. Only
// the bracket of p is read. A degraded cell is counted.
func atReference(p Point, ref fluid.Source, nbuf float64, rec obs.Recorder) Point {
	if p.Degraded != "" && rec != nil {
		rec.Add(obs.MetricCoreCellsDegraded, 1)
	}
	return Point{
		NormalizedBuffer: nbuf,
		Cutoff:           ref.Interarrival.Cutoff,
		Hurst:            ref.Hurst(),
		Scale:            1,
		Streams:          1,
		Loss:             p.Loss,
		Lower:            p.Lower,
		Upper:            p.Upper,
		Converged:        p.Converged,
		Degraded:         p.Degraded,
	}
}

// surface is one solved loss surface laid out buffers × columns: cell i
// sits at buffer i/nc in column i%nc. Every LossVs* sweep is a surface,
// given by a reference source per column and a journal key per cell.
type surface struct {
	util    float64
	buffers []float64
	nc      int
	// ref builds column c's reference fluid source.
	ref func(c int) (fluid.Source, error)
	// key names cell i within the sweep's journal namespace.
	key func(i int) string
	// place, when non-nil, sets the coordinates of column c's cells that
	// its reference does not carry: the marginal scale, the stream count,
	// and an imposed Hurst value.
	place func(p *Point, c int)
}

// column is one column of a surface: its reference source and, for a local
// sweep, the traffic model realized from it.
type column struct {
	ref fluid.Source
	src source.Source
}

// sweep runs the surface's cells through gridSweep. Each column's
// reference — and, for a local sweep, the traffic model realized from it
// as cfg.Model — is built once, on first use, and shared by the column's
// cells; both are deterministic, so the shared sources are bit-identical to
// per-cell ones. Models fitted by approximation (e.g. markov) surface
// their correlation-fit error through the MetricSourceFitMaxError gauge. A
// cell is solved in-process or by cfg.Remote, then placed at its
// reference's coordinates.
//
// With cfg.WarmStarts, a local surface of more than one buffer runs each
// column as an ascending-buffer warm-start chain (valid bounds, different
// low-order digits, namespaced journal — see SweepConfig).
func (s surface) sweep(ctx context.Context, cfg SweepConfig) ([]Point, error) {
	rec := cfg.Solver.Recorder
	columns := make([]func() (column, error), s.nc)
	for c := range columns {
		columns[c] = sync.OnceValues(func() (column, error) {
			ref, err := s.ref(c)
			if err != nil || cfg.Remote != nil {
				// A remote cell is realized by the fleet.
				return column{ref: ref}, err
			}
			src, err := cfg.Model.Realize(ref)
			if fq, ok := src.(source.FitQuality); ok && rec != nil {
				rec.Set(obs.MetricSourceFitMaxError, fq.FitMaxError())
			}
			return column{ref: ref, src: src}, err
		})
	}
	compute := func(ctx context.Context, i int, seed *solver.Seed) (Point, *solver.Seed, error) {
		c, b := i%s.nc, s.buffers[i/s.nc]
		col, err := columns[c]()
		if err != nil {
			return Point{}, nil, err
		}
		var p Point
		var next *solver.Seed
		if cfg.Remote != nil {
			p, err = cfg.Remote(ctx, RemoteCell{
				Ref: col.ref, Model: cfg.Model, Util: s.util, NormalizedBuffer: b,
				Config: cfg.Solver,
			})
		} else {
			p, next, err = solveCell(ctx, col.src, s.util, b, cfg.Solver, seed)
		}
		if err != nil {
			return Point{}, nil, err
		}
		p = atReference(p, col.ref, b, rec)
		if s.place != nil {
			s.place(&p, c)
		}
		return p, next, nil
	}
	n := len(s.buffers) * s.nc
	chains := cellChains(n)
	if cfg.WarmStarts && cfg.Remote == nil && len(s.buffers) > 1 {
		// Warm results differ from cold ones in their low-order digits, so
		// they journal under their own namespace: a warm run never replays a
		// cold journal and vice versa.
		cfg.Prefix += "warm=1|"
		chains = bufferChains(s.buffers, s.nc)
	}
	return gridSweep(ctx, cfg, n, chains, s.key, compute)
}

// bufferChains partitions a surface's cells into per-column chains ordered
// by ascending buffer — the direction the warm-start coupling argument
// permits. No such ordering exists along a column axis such as the cutoff
// (the work increment takes both signs), so chains never cross columns.
func bufferChains(buffers []float64, nc int) [][]int {
	order := make([]int, len(buffers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return buffers[order[a]] < buffers[order[b]] })
	chains := make([][]int, nc)
	for c := range chains {
		chain := make([]int, len(buffers))
		for k, bi := range order {
			chain[k] = bi*nc + c
		}
		chains[c] = chain
	}
	return chains
}

// LossVsBufferAndCutoff computes the model loss surface of Figs. 4 and 5:
// loss rate over a (normalized buffer, cutoff lag) grid at fixed
// utilization. On context cancellation it returns the completed cells
// alongside the context error, so a sweep always yields its partial rows.
// With cfg.WarmStarts each cutoff column runs as an ascending-buffer
// warm-start chain (see SweepConfig).
func LossVsBufferAndCutoff(ctx context.Context, tm TraceModel, util float64, buffers, cutoffs []float64, cfg SweepConfig) ([]Point, error) {
	if len(buffers) == 0 || len(cutoffs) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	nc := len(cutoffs)
	return surface{
		util: util, buffers: buffers, nc: nc,
		ref: func(c int) (fluid.Source, error) { return tm.Source(cutoffs[c]) },
		key: func(i int) string {
			return "bufcut|u=" + fkey(util) + "|b=" + fkey(buffers[i/nc]) + "|tc=" + fkey(cutoffs[i%nc])
		},
	}.sweep(ctx, cfg)
}

// LossVsCutoffFixedTheta reproduces Fig. 9: loss rate versus cutoff lag
// with *all* other parameters fixed across marginals (normalized buffer,
// utilization, θ, and H), isolating the marginal's influence.
func LossVsCutoffFixedTheta(ctx context.Context, marginal dist.Marginal, util, nbuf, theta, hurst float64, cutoffs []float64, cfg SweepConfig) ([]Point, error) {
	if len(cutoffs) == 0 {
		return nil, errors.New("core: empty cutoff grid")
	}
	alpha := dist.AlphaFromHurst(hurst)
	keyBase := "cutfix|u=" + fkey(util) + "|b=" + fkey(nbuf) + "|th=" + fkey(theta) + "|h=" + fkey(hurst)
	return surface{
		util: util, buffers: []float64{nbuf}, nc: len(cutoffs),
		ref: func(c int) (fluid.Source, error) {
			return fluid.New(marginal, dist.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: cutoffs[c]})
		},
		key: func(i int) string { return keyBase + "|tc=" + fkey(cutoffs[i]) },
	}.sweep(ctx, cfg)
}

// LossVsHurstAndScale reproduces Fig. 10: loss over a (Hurst, marginal
// scaling factor) grid at fixed normalized buffer, utilization, and an
// infinite cutoff; θ is matched at the trace model's nominal H.
func LossVsHurstAndScale(ctx context.Context, tm TraceModel, util, nbuf float64, hursts, scales []float64, cfg SweepConfig) ([]Point, error) {
	if len(hursts) == 0 || len(scales) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	na := len(scales)
	keyBase := "hscale|u=" + fkey(util) + "|b=" + fkey(nbuf)
	return surface{
		util: util, buffers: []float64{nbuf}, nc: len(hursts) * na,
		ref: func(c int) (fluid.Source, error) {
			src, err := tm.SourceWithHurst(hursts[c/na], math.Inf(1))
			return src.WithMarginal(tm.Marginal.Scale(scales[c%na])), err
		},
		key: func(i int) string {
			return keyBase + "|h=" + fkey(hursts[i/na]) + "|a=" + fkey(scales[i%na])
		},
		place: func(p *Point, c int) { p.Hurst, p.Scale = hursts[c/na], scales[c%na] },
	}.sweep(ctx, cfg)
}

// LossVsHurstAndStreams reproduces Fig. 11: loss over a (Hurst, number of
// superposed streams) grid; the marginal is the n-fold convolution
// renormalized to the original mean, with buffer and service rate per
// stream kept constant.
func LossVsHurstAndStreams(ctx context.Context, tm TraceModel, util, nbuf float64, hursts []float64, streams []int, cfg SweepConfig) ([]Point, error) {
	if len(hursts) == 0 || len(streams) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	// Precompute superposed marginals (shared across Hurst values).
	margs := make([]dist.Marginal, len(streams))
	for j, n := range streams {
		sm, err := tm.Marginal.Superpose(n, 64)
		if err != nil {
			return nil, err
		}
		if sm, err = sm.Rebin(HistogramBins); err != nil {
			return nil, err
		}
		margs[j] = sm
	}
	ns := len(streams)
	keyBase := "hstreams|u=" + fkey(util) + "|b=" + fkey(nbuf)
	return surface{
		util: util, buffers: []float64{nbuf}, nc: len(hursts) * ns,
		ref: func(c int) (fluid.Source, error) {
			src, err := tm.SourceWithHurst(hursts[c/ns], math.Inf(1))
			return src.WithMarginal(margs[c%ns]), err
		},
		key: func(i int) string {
			return keyBase + "|h=" + fkey(hursts[i/ns]) + "|n=" + strconv.Itoa(streams[i%ns])
		},
		place: func(p *Point, c int) { p.Hurst, p.Streams = hursts[c/ns], streams[c%ns] },
	}.sweep(ctx, cfg)
}

// LossVsBufferAndScale reproduces Figs. 12 and 13: loss over a (normalized
// buffer, marginal scaling factor) grid with an infinite cutoff. With
// cfg.WarmStarts each scale column runs as an ascending-buffer warm-start
// chain (see SweepConfig).
func LossVsBufferAndScale(ctx context.Context, tm TraceModel, util float64, buffers, scales []float64, cfg SweepConfig) ([]Point, error) {
	if len(buffers) == 0 || len(scales) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	na := len(scales)
	return surface{
		util: util, buffers: buffers, nc: na,
		ref: func(c int) (fluid.Source, error) {
			src, err := tm.Source(math.Inf(1))
			return src.WithMarginal(tm.Marginal.Scale(scales[c])), err
		},
		key: func(i int) string {
			return "bscale|u=" + fkey(util) + "|b=" + fkey(buffers[i/na]) + "|a=" + fkey(scales[i%na])
		},
		place: func(p *Point, c int) { p.Scale = scales[c] },
	}.sweep(ctx, cfg)
}

// BoundSnapshot is the occupancy-bound state after a given iteration count
// (the content of the paper's Fig. 2).
type BoundSnapshot struct {
	Iteration int
	// Grid[i] is the occupancy value i·d; LowerCDF/UpperCDF are the
	// cumulative occupancy distributions of the two bound processes.
	Grid               []float64
	LowerCDF, UpperCDF []float64
}

// BoundConvergence reproduces Fig. 2: the discrete lower/upper occupancy
// bounds after the requested iteration counts with a fixed resolution M.
func BoundConvergence(tm TraceModel, util, nbuf float64, bins int, iterations []int) ([]BoundSnapshot, error) {
	src, err := tm.Source(math.Inf(1))
	if err != nil {
		return nil, err
	}
	q, err := solver.NewQueueNormalized(src, util, nbuf)
	if err != nil {
		return nil, err
	}
	it, err := solver.NewIterator(q, solver.Config{InitialBins: bins, MaxBins: bins})
	if err != nil {
		return nil, err
	}
	var out []BoundSnapshot
	step := 0
	for _, target := range iterations {
		if target < step {
			return nil, fmt.Errorf("core: iteration targets must be non-decreasing (got %d after %d)", target, step)
		}
		for step < target {
			if err := it.Step(); err != nil {
				return nil, err
			}
			step++
		}
		lower := it.LowerOccupancy()
		upper := it.UpperOccupancy()
		grid := make([]float64, len(lower))
		lcdf := make([]float64, len(lower))
		ucdf := make([]float64, len(lower))
		var la, ua float64
		for i := range lower {
			grid[i] = float64(i) * it.GridStep() / q.ServiceRate // in seconds of buffering
			la += lower[i]
			ua += upper[i]
			lcdf[i], ucdf[i] = la, ua
		}
		out = append(out, BoundSnapshot{Iteration: target, Grid: grid, LowerCDF: lcdf, UpperCDF: ucdf})
	}
	return out, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
