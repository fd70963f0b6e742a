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
	"strconv"
	"sync"
	"time"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/lrdest"
	"lrd/internal/obs"
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

// BuildTraceModel fits the model ingredients to a trace. A positive hurst
// imposes that value (the paper quotes its Whittle/wavelet estimates);
// hurst <= 0 estimates it with the local Whittle estimator.
func BuildTraceModel(tr traces.Trace, hurst float64) (TraceModel, error) {
	if len(tr.Rates) == 0 {
		return TraceModel{}, errors.New("core: empty trace")
	}
	m, err := tr.Marginal(HistogramBins)
	if err != nil {
		return TraceModel{}, err
	}
	epoch, err := tr.MeanEpoch(HistogramBins)
	if err != nil {
		return TraceModel{}, err
	}
	if hurst <= 0 {
		hurst, err = lrdest.LocalWhittle(tr.Rates, 0)
		if err != nil {
			return TraceModel{}, fmt.Errorf("core: estimating Hurst: %w", err)
		}
	}
	return TraceModel{Trace: tr, Marginal: m, Hurst: hurst, MeanEpoch: epoch}, nil
}

// Source builds the cutoff-correlated fluid source for this trace model
// with the given cutoff lag (seconds; math.Inf(1) for no cutoff).
func (tm TraceModel) Source(cutoff float64) (fluid.Source, error) {
	return fluid.FromTraceStats(tm.Marginal, tm.Hurst, tm.MeanEpoch, cutoff)
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

// parallelMap runs f over n indices on a bounded worker pool. It returns a
// per-index completion mask and the first error. When ctx is canceled,
// dispatch stops, in-flight cells finish, and the returned error is
// ctx.Err() — completed indices remain marked done, so callers can emit
// partial, clearly-marked results instead of discarding the sweep.
//
// A non-nil rec receives the sweep telemetry: cells planned/started/
// completed, per-cell wall time, worker-pool size, and accumulated busy
// time (worker utilization = busy seconds / (workers × sweep seconds)).
func parallelMap(ctx context.Context, rec obs.Recorder, workers, n int, f func(i int) error) ([]bool, error) {
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
	done := make([]bool, n)
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
				done[i] = true
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
		return done, err
	default:
		return done, ctxErr
	}
}

// completedPoints filters a parallelMap output down to the cells that
// actually finished.
func completedPoints(pts []Point, done []bool) []Point {
	out := make([]Point, 0, len(pts))
	for i, p := range pts {
		if done[i] {
			out = append(out, p)
		}
	}
	return out
}

// gridSweep is the durable execution engine under every Point-valued
// sweep: it runs compute over n cells on the parallelMap worker pool,
// consulting cfg.Store to skip cells a previous (interrupted) run already
// journaled and pushing every fresh result through the bounded retry
// policy before journaling it. key(i) must identify cell i within
// cfg.Prefix's namespace.
func gridSweep(ctx context.Context, cfg SweepConfig, n int, key func(int) string, compute func(context.Context, int) (Point, error)) ([]Point, error) {
	out := make([]Point, n)
	done, err := parallelMap(ctx, cfg.Solver.Recorder, cfg.Workers, n, func(i int) error {
		p, err := runCell(ctx, cfg, key(i), func(ctx context.Context) (Point, error) { return compute(ctx, i) })
		if err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	return completedPoints(out, done), err
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
func runCell(ctx context.Context, cfg SweepConfig, key string, compute func(context.Context) (Point, error)) (Point, error) {
	rec := cfg.Solver.Recorder
	fullKey := cfg.Prefix + key
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
			var p Point
			if err := json.Unmarshal(raw, &p); err == nil {
				if rec != nil {
					rec.Add(obs.MetricCoreCellsResumed, 1)
				}
				outcome = "resumed"
				return p, nil
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
		return Point{}, err
	}
	if !acquired {
		// Another worker computed the cell; adopt its result. An
		// undecodable value here means the fleet is running incompatible
		// schemas — fail loudly rather than silently double-compute.
		var p Point
		if uerr := json.Unmarshal(raw, &p); uerr != nil {
			outcome = "error"
			return Point{}, fmt.Errorf("core: adopting cell %q from a peer worker: %w", fullKey, uerr)
		}
		if rec != nil {
			rec.Add(obs.MetricCoreCellsAdopted, 1)
		}
		outcome = "adopted"
		return p, nil
	}
	p, err := computeCell(ctx, cfg, fullKey, compute)
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
	return p, err
}

// computeCell is runCell's compute-and-retry loop (steps 3 and 4 of the
// runCell contract).
func computeCell(ctx context.Context, cfg SweepConfig, fullKey string, compute func(context.Context) (Point, error)) (Point, error) {
	rec := cfg.Solver.Recorder
	for attempt := 1; ; attempt++ {
		p, err := compute(ctx)
		if err == nil && !p.Degraded.Retryable() {
			// Final: clean, or a terminal degradation a re-run would
			// deterministically reproduce.
			if cfg.Store != nil {
				_, finishAppend := obs.StartSpan(ctx, "journal.append")
				serr := cfg.Store.Store(fullKey, p)
				if obs.Traced(ctx) {
					finishAppend(map[string]string{"key": fullKey})
				}
				if serr != nil {
					return Point{}, serr
				}
			}
			return p, nil
		}
		if err != nil && cfg.Store != nil {
			if serr := cfg.Store.Fail(fullKey, attempt, err); serr != nil {
				return Point{}, serr
			}
		}
		retryable := err == nil || solver.RetryableError(err)
		if !retryable || attempt >= cfg.Retry.attempts() || ctx.Err() != nil {
			if err != nil {
				return Point{}, err
			}
			// A transiently degraded cell keeps its best-so-far bracket in
			// the partial table but is not journaled as complete.
			return p, nil
		}
		if rec != nil {
			rec.Add(obs.MetricCoreCellsRetried, 1)
		}
		if serr := sleepCtx(ctx, cfg.Retry.backoff(attempt)); serr != nil {
			if err != nil {
				return Point{}, err
			}
			return p, nil
		}
	}
}

// solveCell runs the solver on one parameter cell for any traffic model,
// warm-started from seed when it is non-nil (a nil seed solves cold). It
// returns the seed for the cell's next larger-buffer neighbor (nil when the
// result carries no usable occupancy vectors).
// Cancellation or budget expiry never errors: the cell comes back with its
// best-so-far bracket and a nonempty Degraded reason. The reported Cutoff
// and Hurst are the source's *reference* coordinates (the grid cell it
// models), so non-fluid cells land in the same table rows as fluid ones.
func solveCell(ctx context.Context, src source.Source, util, nbuf float64, cfg solver.Config, seed *solver.Seed) (Point, *solver.Seed, error) {
	m, err := solver.NewModelNormalized(src, util, nbuf)
	if err != nil {
		return Point{}, nil, err
	}
	res, err := solver.SolveModelSeeded(ctx, m, cfg, seed)
	if err != nil {
		return Point{}, nil, err
	}
	if res.Degraded != "" && cfg.Recorder != nil {
		cfg.Recorder.Add(obs.MetricCoreCellsDegraded, 1)
	}
	next := solver.SeedFromResult(m, res)
	if next != nil && seed != nil && seed.Iterations > next.Iterations {
		// Keep the chain head's cost as the running cold-cost estimate for
		// the iterations-saved metric.
		next.Iterations = seed.Iterations
	}
	return Point{
		NormalizedBuffer: nbuf,
		Cutoff:           src.Cutoff(),
		Hurst:            src.Hurst(),
		Scale:            1,
		Streams:          1,
		Loss:             res.Loss,
		Lower:            res.Lower,
		Upper:            res.Upper,
		Converged:        res.Converged,
		Degraded:         res.Degraded,
	}, next, nil
}

// realizeModel transforms a reference fluid source into the sweep's
// configured traffic model (SweepConfig.Model; the zero spec is the fluid
// identity). Models fitted by approximation (e.g. markov) surface their
// correlation-fit error through the MetricSourceFitMaxError gauge.
func realizeModel(cfg SweepConfig, ref fluid.Source) (source.Source, error) {
	s, err := cfg.Model.Realize(ref)
	if err != nil {
		return nil, err
	}
	if fq, ok := s.(source.FitQuality); ok && cfg.Solver.Recorder != nil {
		cfg.Solver.Recorder.Set(obs.MetricSourceFitMaxError, fq.FitMaxError())
	}
	return s, nil
}

// realizeCell realizes one cell's reference fluid source as the sweep's
// traffic model and solves it cold, or hands the cell to the remote fleet
// when one is configured.
func realizeCell(ctx context.Context, cfg SweepConfig, ref fluid.Source, util, nbuf float64) (Point, error) {
	if cfg.Remote != nil {
		p, err := cfg.Remote(ctx, RemoteCell{
			Ref: ref, Model: cfg.Model, Util: util, NormalizedBuffer: nbuf,
			Config: cfg.Solver,
		})
		if err != nil {
			return Point{}, err
		}
		if p.Degraded != "" && cfg.Solver.Recorder != nil {
			cfg.Solver.Recorder.Add(obs.MetricCoreCellsDegraded, 1)
		}
		return p, nil
	}
	s, err := realizeModel(cfg, ref)
	if err != nil {
		return Point{}, err
	}
	p, _, err := solveCell(ctx, s, util, nbuf, cfg.Solver, nil)
	return p, err
}

// newColumnCache memoizes per-column realized sources: a sweep realizes
// each cutoff column's source once and shares it across the column's
// cells. Source realization is deterministic, so the shared source is
// bit-identical to per-cell realization — only the redundant work (trace
// stats, correlation fits) disappears.
func newColumnCache(n int, realize func(int) (source.Source, error)) func(int) (source.Source, error) {
	type entry struct {
		once sync.Once
		src  source.Source
		err  error
	}
	entries := make([]entry, n)
	return func(c int) (source.Source, error) {
		e := &entries[c]
		e.once.Do(func() { e.src, e.err = realize(c) })
		return e.src, e.err
	}
}

// LossVsBufferAndCutoff computes the model loss surface of Figs. 4 and 5:
// loss rate over a (normalized buffer, cutoff lag) grid at fixed
// utilization. On context cancellation it returns the completed cells
// alongside the context error, so a sweep always yields its partial rows.
//
// Local cells share each cutoff column's realized source (bit-identical
// results); with cfg.WarmStarts each column additionally runs as an
// ascending-buffer warm-start chain (valid bounds, different low-order
// digits, namespaced journal — see SweepConfig).
func LossVsBufferAndCutoff(ctx context.Context, tm TraceModel, util float64, buffers, cutoffs []float64, cfg SweepConfig) ([]Point, error) {
	if len(buffers) == 0 || len(cutoffs) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	nc := len(cutoffs)
	n := len(buffers) * nc
	key := func(i int) string {
		return "bufcut|u=" + fkey(util) + "|b=" + fkey(buffers[i/nc]) + "|tc=" + fkey(cutoffs[i%nc])
	}
	realized := newColumnCache(nc, func(c int) (source.Source, error) {
		ref, err := tm.Source(cutoffs[c])
		if err != nil {
			return nil, err
		}
		return realizeModel(cfg, ref)
	})
	compute := func(ctx context.Context, i int, seed *solver.Seed) (Point, *solver.Seed, error) {
		b := buffers[i/nc]
		if cfg.Remote != nil {
			src, err := tm.Source(cutoffs[i%nc])
			if err != nil {
				return Point{}, nil, err
			}
			p, err := realizeCell(ctx, cfg, src, util, b)
			return p, nil, err
		}
		s, err := realized(i % nc)
		if err != nil {
			return Point{}, nil, err
		}
		return solveCell(ctx, s, util, b, cfg.Solver, seed)
	}
	if cfg.WarmStarts && cfg.Remote == nil {
		// Warm results differ from cold ones in their low-order digits, so
		// they journal under their own namespace: a warm run never replays a
		// cold journal and vice versa.
		cfg.Prefix += "warm=1|"
		return gridSweepChained(ctx, cfg, n, bufferChains(buffers, nc), key, compute)
	}
	return gridSweep(ctx, cfg, n, key, func(ctx context.Context, i int) (Point, error) {
		p, _, err := compute(ctx, i, nil)
		return p, err
	})
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
	return gridSweep(ctx, cfg, len(cutoffs),
		func(i int) string { return keyBase + "|tc=" + fkey(cutoffs[i]) },
		func(ctx context.Context, i int) (Point, error) {
			src, err := fluid.New(marginal, dist.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: cutoffs[i]})
			if err != nil {
				return Point{}, err
			}
			return realizeCell(ctx, cfg, src, util, nbuf)
		})
}

// LossVsHurstAndScale reproduces Fig. 10: loss over a (Hurst, marginal
// scaling factor) grid at fixed normalized buffer, utilization, and an
// infinite cutoff; θ is matched at the trace model's nominal H.
func LossVsHurstAndScale(ctx context.Context, tm TraceModel, util, nbuf float64, hursts, scales []float64, cfg SweepConfig) ([]Point, error) {
	if len(hursts) == 0 || len(scales) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	keyBase := "hscale|u=" + fkey(util) + "|b=" + fkey(nbuf)
	return gridSweep(ctx, cfg, len(hursts)*len(scales),
		func(i int) string {
			return keyBase + "|h=" + fkey(hursts[i/len(scales)]) + "|a=" + fkey(scales[i%len(scales)])
		},
		func(ctx context.Context, i int) (Point, error) {
			h := hursts[i/len(scales)]
			a := scales[i%len(scales)]
			src, err := tm.SourceWithHurst(h, math.Inf(1))
			if err != nil {
				return Point{}, err
			}
			src = src.WithMarginal(tm.Marginal.Scale(a))
			p, err := realizeCell(ctx, cfg, src, util, nbuf)
			if err != nil {
				return Point{}, err
			}
			p.Hurst, p.Scale = h, a
			return p, nil
		})
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
	keyBase := "hstreams|u=" + fkey(util) + "|b=" + fkey(nbuf)
	return gridSweep(ctx, cfg, len(hursts)*len(streams),
		func(i int) string {
			return keyBase + "|h=" + fkey(hursts[i/len(streams)]) + "|n=" + strconv.Itoa(streams[i%len(streams)])
		},
		func(ctx context.Context, i int) (Point, error) {
			h := hursts[i/len(streams)]
			j := i % len(streams)
			src, err := tm.SourceWithHurst(h, math.Inf(1))
			if err != nil {
				return Point{}, err
			}
			src = src.WithMarginal(margs[j])
			p, err := realizeCell(ctx, cfg, src, util, nbuf)
			if err != nil {
				return Point{}, err
			}
			p.Hurst, p.Streams = h, streams[j]
			return p, nil
		})
}

// LossVsBufferAndScale reproduces Figs. 12 and 13: loss over a (normalized
// buffer, marginal scaling factor) grid with an infinite cutoff.
func LossVsBufferAndScale(ctx context.Context, tm TraceModel, util float64, buffers, scales []float64, cfg SweepConfig) ([]Point, error) {
	if len(buffers) == 0 || len(scales) == 0 {
		return nil, errors.New("core: empty parameter grid")
	}
	return gridSweep(ctx, cfg, len(buffers)*len(scales),
		func(i int) string {
			return "bscale|u=" + fkey(util) + "|b=" + fkey(buffers[i/len(scales)]) + "|a=" + fkey(scales[i%len(scales)])
		},
		func(ctx context.Context, i int) (Point, error) {
			b := buffers[i/len(scales)]
			a := scales[i%len(scales)]
			src, err := tm.Source(math.Inf(1))
			if err != nil {
				return Point{}, err
			}
			src = src.WithMarginal(tm.Marginal.Scale(a))
			p, err := realizeCell(ctx, cfg, src, util, b)
			if err != nil {
				return Point{}, err
			}
			p.Scale = a
			return p, nil
		})
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
