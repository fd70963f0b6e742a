package lrd_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"lrd"
)

// TestExportSurfaceCompiles pins the facade: every exported constructor
// and function alias is referenced (so a re-export that drifts to
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
	_ = lrd.NewQueue
	_ = lrd.NewQueueNormalized
	_ = lrd.NewModel
	_ = lrd.NewHyperexponential
	_ = lrd.Solve
	_ = lrd.SolveContext
	_ = lrd.SolveModel
	_ = lrd.SolveModelContext
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

// TestSolveOptions exercises the solve options a SolverConfig carries and
// the model path beside it: telemetry sinks and a budget set as fields
// leave the result bit-identical, and a registered model realized through
// ModelSpec.Realize solves through SolveModel — the fluid identity bit for
// bit like Solve.
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
	got, err := lrd.SolveContext(context.Background(), q, lrd.SolverConfig{
		Recorder:    reg,
		Trace:       func(lrd.TracePoint) { points++ },
		MaxDuration: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, plain) {
		t.Fatalf("recorder, trace and budget changed the result: %+v vs %+v", got, plain)
	}
	if points == 0 {
		t.Fatal("Trace sink never fired")
	}
	if snap := reg.Snapshot(); snap.Counters["solver_solves_total"] != 1 {
		t.Fatalf("Recorder saw %v solves, want 1", snap.Counters["solver_solves_total"])
	}

	// A registered model, realized from the queue's reference source: the
	// fluid identity must be bit-identical to the direct path; a non-fluid
	// model must solve and stay a plausible bracket.
	solveAs := func(spec lrd.ModelSpec) (lrd.Result, error) {
		ts, err := spec.Realize(q.Source)
		if err != nil {
			return lrd.Result{}, err
		}
		model, err := lrd.NewModelFromSource(ts, q.ServiceRate, q.Buffer)
		if err != nil {
			return lrd.Result{}, err
		}
		return lrd.SolveModel(model, lrd.SolverConfig{})
	}
	viaFluid, err := solveAs(lrd.ModelSpec{Name: "fluid"})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(viaFluid, plain) {
		t.Fatalf("the realized fluid model is not the identity: %+v vs %+v", viaFluid, plain)
	}
	viaMMFQ, err := solveAs(lrd.ModelSpec{Name: "mmfq"})
	if err != nil {
		t.Fatal(err)
	}
	if !(viaMMFQ.Lower <= viaMMFQ.Loss && viaMMFQ.Loss <= viaMMFQ.Upper) {
		t.Fatalf("mmfq result %v outside its own bounds [%v, %v]", viaMMFQ.Loss, viaMMFQ.Lower, viaMMFQ.Upper)
	}
	if _, err := solveAs(lrd.ModelSpec{Name: "nosuch"}); err == nil {
		t.Fatal("realizing an unknown model must surface the registry error")
	}

	// A canceled context degrades gracefully through the facade too.
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

// sameResult reports whether two results agree bit for bit: bounds, loss,
// resolution, iteration count and both occupancy vectors.
func sameResult(a, b lrd.Result) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return same([]float64{a.Loss, a.Lower, a.Upper}, []float64{b.Loss, b.Lower, b.Upper}) &&
		a.Bins == b.Bins && a.Iterations == b.Iterations &&
		same(a.LowerOccupancy, b.LowerOccupancy) && same(a.UpperOccupancy, b.UpperOccupancy)
}
