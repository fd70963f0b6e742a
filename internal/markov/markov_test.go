package markov

import (
	"math"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/numerics"
	"lrd/internal/solver"
)

func TestFitCorrelationSingleExponential(t *testing.T) {
	// Fitting an exponential with a mixture of exponentials must be
	// near-exact.
	target := func(t float64) float64 { return math.Exp(-t / 0.3) }
	comps, err := FitCorrelation(target, 5, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxError(target, comps, 5, 300); e > 0.015 {
		t.Fatalf("max fit error %v, want < 0.015", e)
	}
	// Weights sum to one.
	var sum float64
	for _, c := range comps {
		sum += c.Weight
		if c.Scale <= 0 || c.Weight < 0 {
			t.Fatalf("bad component %+v", c)
		}
	}
	if !numerics.AlmostEqual(sum, 1, 1e-9) {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestFitCorrelationPowerLaw(t *testing.T) {
	// The paper's case: truncated-Pareto residual correlation (power-law
	// decay up to the cutoff). A modest number of exponentials should track
	// it within a couple of percent — the Feldmann–Whitt observation.
	p := dist.TruncatedPareto{Theta: 0.016, Alpha: 1.2, Cutoff: 10}
	comps, err := FitCorrelation(p.ResidualCCDF, 10, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := MaxError(p.ResidualCCDF, comps, 10, 400); e > 0.02 {
		t.Fatalf("max fit error %v, want < 0.02", e)
	}
}

func TestFitCorrelationValidation(t *testing.T) {
	if _, err := FitCorrelation(nil, 1, FitOptions{}); err == nil {
		t.Fatal("want error on nil corr")
	}
	ok := func(t float64) float64 { return math.Exp(-t) }
	if _, err := FitCorrelation(ok, 0, FitOptions{}); err == nil {
		t.Fatal("want error on zero horizon")
	}
	if _, err := FitCorrelation(ok, math.Inf(1), FitOptions{}); err == nil {
		t.Fatal("want error on infinite horizon")
	}
	bad := func(t float64) float64 { return 2.5 }
	if _, err := FitCorrelation(bad, 1, FitOptions{}); err == nil {
		t.Fatal("want error on out-of-range correlation")
	}
}

func TestInterarrivalRealizesCorrelation(t *testing.T) {
	// The hyperexponential built from components (w_k, τ_k) must have
	// residual ccdf exactly Σ w_k e^{−t/τ_k}.
	comps := []Component{{Weight: 0.6, Scale: 0.1}, {Weight: 0.4, Scale: 2}}
	h, err := Interarrival(comps)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 0.05, 0.5, 3, 10} {
		want := Evaluate(comps, tt)
		if !numerics.AlmostEqual(h.ResidualCCDF(tt), want, 1e-9) {
			t.Fatalf("t=%v: residual %v, want %v", tt, h.ResidualCCDF(tt), want)
		}
	}
	// Implied mean epoch: 1/Σ(w_k/τ_k).
	wantMean := 1 / (0.6/0.1 + 0.4/2)
	if !numerics.AlmostEqual(h.Mean(), wantMean, 1e-9) {
		t.Fatalf("mean epoch %v, want %v", h.Mean(), wantMean)
	}
}

func TestInterarrivalValidation(t *testing.T) {
	if _, err := Interarrival(nil); err == nil {
		t.Fatal("want error on empty components")
	}
	if _, err := Interarrival([]Component{{Weight: 1, Scale: 0}}); err == nil {
		t.Fatal("want error on zero scale")
	}
}

func TestEquivalentModelPredictsSameLoss(t *testing.T) {
	// The paper's §IV claim, executed: a Markovian model fitted to the
	// truncated-Pareto source's correlation over its full support predicts
	// (nearly) the same loss rate as the original model.
	marg := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	iv := dist.TruncatedPareto{Theta: 0.05, Alpha: 1.4, Cutoff: 2}
	c := 1.25 // utilization 0.8
	buffer := 0.3 * c
	orig, err := solver.NewModel(marg, iv, c, buffer)
	if err != nil {
		t.Fatal(err)
	}
	mk, comps, err := EquivalentModel(orig, 2.0, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) == 0 {
		t.Fatal("no components fitted")
	}
	// The fitted epoch law reproduces the original mean epoch (both are
	// determined by the correlation function).
	if !numerics.AlmostEqual(mk.Interarrival.Mean(), iv.Mean(), 0.05) {
		t.Fatalf("mean epoch %v vs original %v", mk.Interarrival.Mean(), iv.Mean())
	}
	a, err := solver.SolveModel(orig, solver.Config{RelGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solver.SolveModel(mk, solver.Config{RelGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if a.Loss <= 0 || b.Loss <= 0 {
		t.Fatalf("degenerate losses: %v %v", a.Loss, b.Loss)
	}
	ratio := b.Loss / a.Loss
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("Markovian model loss %v vs original %v (ratio %v)", b.Loss, a.Loss, ratio)
	}
}
