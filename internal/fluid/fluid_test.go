package fluid

import (
	"math"
	"math/rand"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/numerics"
)

func testSource(t *testing.T) Source {
	t.Helper()
	m := dist.MustMarginal([]float64{2, 8, 16}, []float64{0.3, 0.5, 0.2})
	s, err := New(m, dist.TruncatedPareto{Theta: 0.016, Alpha: 1.2, Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	m := dist.MustMarginal([]float64{1}, []float64{1})
	if _, err := New(m, dist.TruncatedPareto{Theta: 0, Alpha: 1.2, Cutoff: 1}); err == nil {
		t.Fatal("want error for invalid interarrival")
	}
	if _, err := New(dist.Marginal{}, dist.TruncatedPareto{Theta: 1, Alpha: 1.2, Cutoff: 1}); err == nil {
		t.Fatal("want error for empty marginal")
	}
}

func TestFromTraceStatsCalibration(t *testing.T) {
	m := dist.MustMarginal([]float64{5, 15}, []float64{0.5, 0.5})
	s, err := FromTraceStats(m, 0.9, 0.08, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(s.Interarrival.Alpha, 1.2, 1e-12) {
		t.Fatalf("alpha = %v", s.Interarrival.Alpha)
	}
	if !numerics.AlmostEqual(s.Interarrival.Theta, 0.016, 1e-12) {
		t.Fatalf("theta = %v", s.Interarrival.Theta)
	}
	// The untruncated mean epoch must match the input.
	if !numerics.AlmostEqual(s.Interarrival.Mean(), 0.08, 1e-12) {
		t.Fatalf("mean epoch = %v", s.Interarrival.Mean())
	}
	if !numerics.AlmostEqual(s.Hurst(), 0.9, 1e-12) {
		t.Fatalf("Hurst = %v", s.Hurst())
	}
}

func TestFromTraceStatsRejectsBadHurst(t *testing.T) {
	m := dist.MustMarginal([]float64{1}, []float64{1})
	for _, h := range []float64{0.5, 1.0, 0.2, 1.5} {
		if _, err := FromTraceStats(m, h, 0.08, 1); err == nil {
			t.Errorf("H=%v accepted", h)
		}
	}
}

func TestWithCutoffAndMarginal(t *testing.T) {
	s := testSource(t)
	s2 := s.WithCutoff(3)
	if s2.Interarrival.Cutoff != 3 || s.Interarrival.Cutoff != 10 {
		t.Fatal("WithCutoff should copy, not mutate")
	}
	m := dist.MustMarginal([]float64{4}, []float64{1})
	s3 := s.WithMarginal(m)
	if s3.MeanRate() != 4 || s.MeanRate() == 4 {
		t.Fatal("WithMarginal should copy, not mutate")
	}
}

func TestMoments(t *testing.T) {
	s := testSource(t)
	wantMean := 0.3*2 + 0.5*8 + 0.2*16
	if !numerics.AlmostEqual(s.MeanRate(), wantMean, 1e-12) {
		t.Fatalf("mean rate = %v, want %v", s.MeanRate(), wantMean)
	}
	wantVar := 0.3*4 + 0.5*64 + 0.2*256 - wantMean*wantMean
	if !numerics.AlmostEqual(s.RateVariance(), wantVar, 1e-12) {
		t.Fatalf("rate variance = %v, want %v", s.RateVariance(), wantVar)
	}
}

func TestAutocovarianceShape(t *testing.T) {
	s := testSource(t)
	// φ(0) = σ².
	if !numerics.AlmostEqual(s.Autocovariance(0), s.RateVariance(), 1e-12) {
		t.Fatalf("φ(0) = %v, want σ² = %v", s.Autocovariance(0), s.RateVariance())
	}
	// φ is non-increasing and hits zero at the cutoff.
	prev := s.Autocovariance(0)
	for _, lag := range []float64{0.01, 0.1, 1, 5, 9.99} {
		cur := s.Autocovariance(lag)
		if cur > prev+1e-15 {
			t.Fatalf("autocovariance increased at lag %v", lag)
		}
		prev = cur
	}
	if got := s.Autocovariance(10); got != 0 {
		t.Fatalf("φ(Tc) = %v, want 0 (no correlation beyond the cutoff)", got)
	}
	if got := s.Autocovariance(100); got != 0 {
		t.Fatalf("φ(>Tc) = %v, want 0", got)
	}
}

func TestAutocorrelationNormalized(t *testing.T) {
	s := testSource(t)
	if got := s.Autocorrelation(0); got != 1 {
		t.Fatalf("ρ(0) = %v, want 1", got)
	}
	for _, lag := range []float64{0.5, 2} {
		want := s.Autocovariance(lag) / s.RateVariance()
		if !numerics.AlmostEqual(s.Autocorrelation(lag), want, 1e-12) {
			t.Fatalf("ρ(%v) = %v, want %v", lag, s.Autocorrelation(lag), want)
		}
	}
}

func TestAsymptoticSelfSimilarDecay(t *testing.T) {
	// With Tc = ∞, log φ(t) vs log t should have slope ≈ −(2−2H) at large t.
	m := dist.MustMarginal([]float64{0, 1}, []float64{0.5, 0.5})
	s, err := FromTraceStats(m, 0.9, 0.05, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	lags := numerics.Logspace(10, 10000, 20)
	logt := make([]float64, len(lags))
	logphi := make([]float64, len(lags))
	for i, lag := range lags {
		logt[i] = math.Log(lag)
		logphi[i] = math.Log(s.Autocovariance(lag))
	}
	_, slope, err := numerics.LinearFit(logt, logphi)
	if err != nil {
		t.Fatal(err)
	}
	want := -(2 - 2*0.9) // = −0.2 = −(α−1)
	if !numerics.AlmostEqual(slope, want, 0.02) {
		t.Fatalf("decay slope = %v, want ≈ %v", slope, want)
	}
}

func TestServiceRateForUtilization(t *testing.T) {
	s := testSource(t)
	c, err := s.ServiceRateForUtilization(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(s.MeanRate()/c, 0.8, 1e-12) {
		t.Fatalf("utilization = %v", s.MeanRate()/c)
	}
	for _, rho := range []float64{0, 1, -0.5, 2} {
		if _, err := s.ServiceRateForUtilization(rho); err == nil {
			t.Errorf("rho=%v accepted", rho)
		}
	}
}

func TestGenerateEpochs(t *testing.T) {
	s := testSource(t)
	rng := rand.New(rand.NewSource(4))
	eps := s.GenerateEpochs(50000, rng)
	if len(eps) != 50000 {
		t.Fatalf("len = %d", len(eps))
	}
	var durAcc, rateAcc numerics.Accumulator
	for _, e := range eps {
		if e.Duration < 0 || e.Duration > s.Interarrival.Cutoff {
			t.Fatalf("epoch duration %v out of range", e.Duration)
		}
		durAcc.Add(e.Duration)
		rateAcc.Add(e.Rate)
	}
	meanDur := durAcc.Sum() / float64(len(eps))
	if !numerics.AlmostEqual(meanDur, s.Interarrival.Mean(), 0.05) {
		t.Fatalf("mean duration %v, want ≈ %v", meanDur, s.Interarrival.Mean())
	}
	meanRate := rateAcc.Sum() / float64(len(eps))
	if !numerics.AlmostEqual(meanRate, s.MeanRate(), 0.05) {
		t.Fatalf("mean rate %v, want ≈ %v", meanRate, s.MeanRate())
	}
}

func TestStringDescribes(t *testing.T) {
	if testSource(t).String() == "" {
		t.Fatal("String should be non-empty")
	}
}
