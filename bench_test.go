package lrd_test

// The benchmark harness regenerates, per iteration, the data behind every
// figure of the paper's evaluation (quick grids; run lrdsweep over every
// -list id for the full paper-scale grids). Each benchmark reports
// rows/op — the number of table rows the experiment produced — so a bench
// run doubles as an end-to-end smoke test of the entire reproduction
// pipeline:
//
//	go test -bench=. -benchmem
//
// Component-level micro-benchmarks (solver step, FFT, FGN synthesis)
// accompany the figure benches at the bottom of the file.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"lrd"
	"lrd/internal/core"
	"lrd/internal/fft"
	"lrd/internal/fgn"
	"lrd/internal/solver"
	"lrd/internal/traces"
)

// benchOpts keeps the figure benches fast while still exercising every
// code path: quick grids and a modest solver budget.
func benchOpts() core.RunOptions {
	return core.RunOptions{
		Seed:   1,
		Quick:  true,
		Solver: solver.Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 10000},
	}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := core.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		table, err := e.Run(context.Background(), opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rows = len(table.Rows)
	}
	b.ReportMetric(float64(rows), "rows/op")
}

func BenchmarkFig02BoundConvergence(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig03Marginals(b *testing.B)            { benchExperiment(b, "fig3") }
func BenchmarkFig04LossSurfaceMTV(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig05LossSurfaceBC(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig06Shuffle(b *testing.B)              { benchExperiment(b, "fig6") }
func BenchmarkFig07ShuffleMTV(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig08ShuffleBC(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig09MarginalComparison(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10HurstVsScaling(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11HurstVsSuperposition(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12BufferVsScalingMTV(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13BufferVsScalingBC(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14CorrelationHorizon(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkHurstEstimators(b *testing.B)           { benchExperiment(b, "hurst") }
func BenchmarkMarkovBaseline(b *testing.B)            { benchExperiment(b, "markov") }
func BenchmarkARQvsFEC(b *testing.B)                  { benchExperiment(b, "arqfec") }
func BenchmarkEq26AnalyticHorizon(b *testing.B)       { benchExperiment(b, "eq26") }
func BenchmarkModelVsSimulationFit(b *testing.B)      { benchExperiment(b, "modelfit") }
func BenchmarkDelayQuantiles(b *testing.B)            { benchExperiment(b, "delay") }

// --- dense sweep benchmarks ---

// benchSweepGrid builds the dense Fig. 7-style buffer×cutoff grid warm
// starts target: 32 buffers in 2.5% steps (adjacent cells differ
// little, so a converged occupancy vector seeds its neighbor well) × 32
// log-spaced cutoffs, 1024 cells total.
func benchSweepGrid(b *testing.B) (core.TraceModel, []float64, []float64) {
	b.Helper()
	tr, err := traces.Synthesize(traces.Config{
		Name:     "bench",
		Hurst:    0.85,
		Bins:     1 << 13,
		BinWidth: 0.02,
		Quantile: traces.LognormalQuantile(4, 0.5),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	tm, err := core.BuildTraceModel(tr, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	buffers := make([]float64, 32)
	for i := range buffers {
		buffers[i] = 0.05 * (1 + 0.0125*float64(i))
	}
	cutoffs := make([]float64, 32)
	for j := range cutoffs {
		cutoffs[j] = 0.5 * math.Pow(20, float64(j)/float64(len(cutoffs)-1))
	}
	return tm, buffers, cutoffs
}

// benchDenseSweep times LossVsBufferAndCutoff over the dense grid and
// reports ns/cell — the unit warm starts are judged in.
func benchDenseSweep(b *testing.B, warm bool) {
	tm, buffers, cutoffs := benchSweepGrid(b)
	// The tight RelGap is the regime warm starts target: the Clegg
	// critique's "dense, accurate grids" — cold solves pay many fine-rung
	// iterations, which is precisely what a neighbor's converged occupancy
	// vector skips.
	cfg := core.Sweep(solver.Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 20000, RelGap: 0.05})
	cfg.WarmStarts = warm
	cells := len(buffers) * len(cutoffs)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		pts, err := core.LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != cells {
			b.Fatalf("got %d points, want %d", len(pts), cells)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	nsPerCell := float64(elapsed.Nanoseconds()) / float64(b.N*cells)
	b.ReportMetric(nsPerCell, "ns/cell")
}

// BenchmarkSweepPerCell is the baseline: every cell runs a cold solve from
// the coarse M-doubling ladder.
func BenchmarkSweepPerCell(b *testing.B) { benchDenseSweep(b, false) }

// BenchmarkBatchSweep is the warm-chained sweep over the identical grid:
// each cell is seeded from its buffer-axis neighbor. CI divides the two
// benchmarks' ns/cell figures and asserts the warm sweep is ≥ 3× faster.
func BenchmarkBatchSweep(b *testing.B) { benchDenseSweep(b, true) }

// --- component micro-benchmarks ---

func benchQueue(b *testing.B, cutoff float64) lrd.Queue {
	b.Helper()
	m := lrd.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	src, err := lrd.NewSource(m, lrd.TruncatedPareto{Theta: 0.05, Alpha: 1.4, Cutoff: cutoff})
	if err != nil {
		b.Fatal(err)
	}
	q, err := lrd.NewQueueNormalized(src, 0.8, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// benchSolve times lrd.Solve with the given config.
func benchSolve(b *testing.B, cfg lrd.SolverConfig) {
	b.Helper()
	q := benchQueue(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.Solve(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOnOff measures one full solver run (the paper's "typical
// runtime was less than a second on a workstation") with no telemetry
// attached — the baseline the ±2 % no-regression acceptance bar compares
// against.
func BenchmarkSolveOnOff(b *testing.B) {
	benchSolve(b, lrd.SolverConfig{})
}

// BenchmarkSolveInstrumented is the identical solve with a live metrics
// registry and a trace sink attached; comparing it against SolveOnOff
// gives the observed telemetry overhead.
func BenchmarkSolveInstrumented(b *testing.B) {
	benchSolve(b, lrd.SolverConfig{Recorder: lrd.NewMetricsRegistry(), Trace: func(lrd.TracePoint) {}})
}

// BenchmarkSolveNilRecorder is the tracing layer's allocation guard: the
// solve runs under a context that carries a TraceContext but no span sink
// and no Recorder, the configuration every uninstrumented run sees. The
// AllocsPerRun probe asserts the disabled tracing surface itself (context
// lookups, StartSpan, finish) contributes exactly zero allocations; the
// timed loop then times the full solve for comparison against SolveOnOff
// (any gap would be tracing overhead).
func BenchmarkSolveNilRecorder(b *testing.B) {
	ctx := lrd.ContextWithTrace(context.Background(), lrd.NewTrace())
	if allocs := testing.AllocsPerRun(100, func() {
		spanCtx, finish := lrd.StartSpan(ctx, "bench")
		if _, ok := lrd.TraceFromContext(spanCtx); !ok {
			b.Fatal("trace context lost")
		}
		finish(nil)
	}); allocs != 0 {
		b.Fatalf("disabled tracing path allocates %v allocs/op, want 0", allocs)
	}

	q := benchQueue(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.SolveContext(ctx, q, lrd.SolverConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvision times one inverse solve per op: the minimal buffer, up
// to 2 s, at which the on/off source with H 0.9, 50 ms mean epochs and a
// 1 s cutoff meets a 0.05 loss SLO at utilization 0.7. solves/op is the
// number of probes (one forward solve each) an answer spends.
func BenchmarkProvision(b *testing.B) {
	m := lrd.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	alpha := lrd.AlphaFromHurst(0.9)
	theta, err := lrd.CalibrateTheta(alpha, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	src, err := lrd.NewSource(m, lrd.TruncatedPareto{Theta: theta, Alpha: alpha, Cutoff: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := lrd.NewFluidSource(src)
	opts := lrd.ProvisionOptions{SLO: 0.05, Util: 0.7, Max: 2}
	b.ReportAllocs()
	b.ResetTimer()
	solves := 0
	for i := 0; i < b.N; i++ {
		p, err := lrd.Provision(context.Background(), ts, opts)
		if err != nil {
			b.Fatal(err)
		}
		solves += p.Solves
	}
	b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
}

// BenchmarkSolverStep measures a single Lindley iteration of both bound
// processes at M = 1024 (the per-step FFT convolution cost).
func BenchmarkSolverStep(b *testing.B) {
	q := benchQueue(b, 2)
	it, err := lrd.NewIterator(q, lrd.SolverConfig{InitialBins: 1024, MaxBins: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolve measures one FFT convolution at the solver's shape, an
// occupancy pmf of length M+1 against an increment pmf of length 2M+1, on
// a reused Scratch (0 allocs/op) — the layer below BenchmarkSolverStep,
// which makes two of these per step.
func BenchmarkConvolve(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			q, w := make([]float64, m+1), make([]float64, 2*m+1)
			for i := range q {
				q[i] = rng.Float64()
			}
			for i := range w {
				w[i] = rng.Float64()
			}
			var s fft.Scratch
			fft.ConvolveRealInto(q, w, &s) // grow the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ConvolveRealInto(q, w, &s)
			}
		})
	}
}

// BenchmarkMonteCarloMillion measures the simulation path the solver is
// validated against: one million renewal epochs.
func BenchmarkMonteCarloMillion(b *testing.B) {
	q := benchQueue(b, 2)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.MonteCarloLoss(q.Source, q.ServiceRate, q.Buffer, 1_000_000, 0, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFGNSynthesis measures exact Davies–Harte FGN generation at the
// MTV trace length.
func BenchmarkFGNSynthesis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.DaviesHarte(0.83, 107892, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHurstWhittle measures the local Whittle estimator on a 64k
// sample series.
func BenchmarkHurstWhittle(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, err := fgn.DaviesHarte(0.9, 1<<16, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := lrd.EstimateHurst(x)
		if est.LocalWhittle.Err != nil {
			b.Fatal(est.LocalWhittle.Err)
		}
		if math.IsNaN(est.LocalWhittle.H) {
			b.Fatal("estimator returned NaN")
		}
	}
}
