package lrd_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"lrd"
)

// TestExportSurfaceCompiles pins the facade: every exported constructor,
// function alias, and option is referenced (so a re-export that drifts to
// a different signature breaks this test at compile time, which golden
// TSVs can never see), and the cheap ones are called once.
func TestExportSurfaceCompiles(t *testing.T) {
	// Core model types: declaring zero values pins the type aliases.
	var (
		_ lrd.Marginal
		_ lrd.TruncatedPareto
		_ lrd.Hyperexponential
		_ lrd.Interarrival
		_ lrd.Source
		_ lrd.Epoch
		_ lrd.Queue
		_ lrd.Model
		_ lrd.SolverConfig
		_ lrd.Result
		_ lrd.Iterator
		_ lrd.Trace
		_ lrd.TraceConfig
		_ lrd.TraceModel
		_ lrd.HurstEstimates
		_ lrd.DegradeReason
		_ lrd.NumericError
		_ lrd.Recorder
		_ lrd.MetricsRegistry
		_ lrd.MetricsSnapshot
		_ lrd.TracePoint
		_ lrd.TrafficSource
		_ lrd.TrafficModel
		_ lrd.ModelSpec
		_ lrd.ModelParams
		_ lrd.ModelFitQuality
		_ lrd.ModelOverflowOracle
		_ lrd.SweepConfig
		_ lrd.CellStore
		_ lrd.JournalStore
		_ lrd.JournalStoreOptions
		_ lrd.RetryPolicy
		_ lrd.AMSQueue
		_ lrd.OnOffParams
		_ lrd.FECParams
		_ lrd.MMFQModulator
		_ lrd.MMFQSolution
		_ lrd.Option
	)

	// Function-alias vars: taking them as values pins their signatures.
	// Grouped by the lrd.go sections they re-export.
	_ = lrd.NewMarginal
	_ = lrd.MustMarginal
	_ = lrd.MarginalFromSamples
	_ = lrd.HurstFromAlpha
	_ = lrd.AlphaFromHurst
	_ = lrd.CalibrateTheta
	_ = lrd.NewSource
	_ = lrd.SourceFromTraceStats
	_ = lrd.NewQueue
	_ = lrd.NewQueueNormalized
	_ = lrd.NewModel
	_ = lrd.NewHyperexponential
	_ = lrd.NewIterator
	_ = lrd.ErrNumeric
	_ = lrd.SolverConfigHash
	_ = lrd.NewMetricsRegistry
	_ = lrd.SimulateTrace
	_ = lrd.MonteCarloLoss
	_ = lrd.ShuffleExternal
	_ = lrd.ShuffleInternal
	_ = lrd.SynthesizeTrace
	_ = lrd.LognormalQuantile
	_ = lrd.MTVTrace
	_ = lrd.BellcoreTrace
	_ = lrd.EstimateHurst
	_ = lrd.CorrelationHorizon
	_ = lrd.HorizonFromCurve
	_ = lrd.RegisterModel
	_ = lrd.BuildModel
	_ = lrd.ModelNames
	_ = lrd.ParseModelSpec
	_ = lrd.ParseModelSpecs
	_ = lrd.NewFluidSource
	_ = lrd.NewModelFromSource
	_ = lrd.NewModelNormalized
	_ = lrd.GenerateBinnedFromSource
	_ = lrd.FitMarkovCorrelation
	_ = lrd.MarkovEquivalentModel
	_ = lrd.Sweep
	_ = lrd.OpenJournalStore
	_ = lrd.SweepConfigHash
	_ = lrd.BuildTraceModel
	_ = lrd.MTVModel
	_ = lrd.BellcoreModel
	_ = lrd.LossVsBufferAndCutoff
	_ = lrd.LossVsCutoffFixedTheta
	_ = lrd.LossVsHurstAndScale
	_ = lrd.LossVsHurstAndStreams
	_ = lrd.LossVsBufferAndScale
	_ = lrd.ShuffleLossSurface
	_ = lrd.HorizonFromSurface
	_ = lrd.BoundConvergence
	_ = lrd.OnOffAggregate
	_ = lrd.GenerateLosses
	_ = lrd.EvaluateFEC
	_ = lrd.EvaluateARQ
	_ = lrd.CompareErrorControl
	_ = lrd.SolveMMFQ
	_ = lrd.NSourceOnOff
	_ = lrd.CriticalTimeScale

	// DegradeReason constants.
	for _, r := range []lrd.DegradeReason{
		lrd.DegradedCanceled, lrd.DegradedDeadline,
		lrd.DegradedIterations, lrd.DegradedStalled,
	} {
		if r == "" {
			t.Fatal("empty DegradeReason constant")
		}
	}

	// Cheap calls through the facade.
	m := lrd.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	if got := lrd.HurstFromAlpha(lrd.AlphaFromHurst(0.9)); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("Hurst/alpha round trip = %v", got)
	}
	if names := lrd.ModelNames(); len(names) < 4 {
		t.Fatalf("registered models %v; want at least fluid/onoff/markov/mmfq", names)
	}
	if lrd.SolverConfigHash(lrd.SolverConfig{}) != lrd.SweepConfigHash(lrd.SolverConfig{}) {
		t.Fatal("SolverConfigHash and SweepConfigHash disagree; journals would stop replaying")
	}
	src, err := lrd.NewSource(m, lrd.TruncatedPareto{Theta: 0.02, Alpha: 1.2, Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	fsrc := lrd.NewFluidSource(src)
	if _, err := lrd.GenerateBinnedFromSource(fsrc, 1, 0.1, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := lrd.BuildModel("fluid", src, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lrd.ParseModelSpec("fluid", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := lrd.ParseModelSpecs("fluid,mmfq", ""); err != nil {
		t.Fatal(err)
	}
}

// TestSolveOptions exercises the functional-options surface: options
// thread through to the solver, WithModel realizes a registered model, and
// an option-free call matches the historical behavior bit for bit.
func TestSolveOptions(t *testing.T) {
	m := lrd.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	src, err := lrd.NewSource(m, lrd.TruncatedPareto{Theta: 0.02, Alpha: 1.2, Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	q, err := lrd.NewQueueNormalized(src, 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := lrd.Solve(q, lrd.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Instrumented solve: bit-identical result, recorder and trace fire.
	reg := lrd.NewMetricsRegistry()
	points := 0
	got, err := lrd.SolveContext(context.Background(), q, lrd.SolverConfig{},
		lrd.WithRecorder(reg),
		lrd.WithTrace(func(lrd.TracePoint) { points++ }),
		lrd.WithTimeout(time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != plain.Loss || got.Lower != plain.Lower || got.Upper != plain.Upper {
		t.Fatalf("options changed the result: %+v vs %+v", got, plain)
	}
	if points == 0 {
		t.Fatal("WithTrace sink never fired")
	}
	if snap := reg.Snapshot(); snap.Counters["solver_solves_total"] != 1 {
		t.Fatalf("WithRecorder saw %v solves, want 1", snap.Counters["solver_solves_total"])
	}

	// WithConfig replaces the base configuration wholesale.
	loose, err := lrd.Solve(q, lrd.SolverConfig{}, lrd.WithConfig(lrd.SolverConfig{RelGap: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if loose.Iterations > plain.Iterations {
		t.Fatalf("WithConfig(RelGap 0.5) took %d iterations, more than the default's %d", loose.Iterations, plain.Iterations)
	}

	// WithModel: the fluid identity must be bit-identical to the direct
	// path; a non-fluid model must solve and stay a plausible bracket.
	viaFluid, err := lrd.Solve(q, lrd.SolverConfig{}, lrd.WithModel(lrd.ModelSpec{Name: "fluid"}))
	if err != nil {
		t.Fatal(err)
	}
	if viaFluid.Loss != plain.Loss || viaFluid.Lower != plain.Lower || viaFluid.Upper != plain.Upper {
		t.Fatalf("WithModel(fluid) is not the identity: %+v vs %+v", viaFluid, plain)
	}
	viaMMFQ, err := lrd.Solve(q, lrd.SolverConfig{}, lrd.WithModel(lrd.ModelSpec{Name: "mmfq"}))
	if err != nil {
		t.Fatal(err)
	}
	if !(viaMMFQ.Lower <= viaMMFQ.Loss && viaMMFQ.Loss <= viaMMFQ.Upper) {
		t.Fatalf("mmfq result %v outside its own bounds [%v, %v]", viaMMFQ.Loss, viaMMFQ.Lower, viaMMFQ.Upper)
	}
	if _, err := lrd.Solve(q, lrd.SolverConfig{}, lrd.WithModel(lrd.ModelSpec{Name: "nosuch"})); err == nil {
		t.Fatal("WithModel(nosuch) must surface the registry error")
	}

	// WithModel is rejected on the Model entry points, which carry no
	// reference source to realize.
	model, err := lrd.NewModel(m, lrd.TruncatedPareto{Theta: 0.02, Alpha: 1.2, Cutoff: 10}, 1.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lrd.SolveModel(model, lrd.SolverConfig{}, lrd.WithModel(lrd.ModelSpec{})); err == nil {
		t.Fatal("SolveModel must reject WithModel")
	}

	// A canceled context degrades gracefully through the options path too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := lrd.SolveContext(ctx, q, lrd.SolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != lrd.DegradedCanceled {
		t.Fatalf("canceled solve degraded as %q, want %q", res.Degraded, lrd.DegradedCanceled)
	}
}
