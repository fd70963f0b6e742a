package dist

import (
	"math"
	"math/rand"
	"testing"

	"lrd/internal/numerics"
)

func TestTruncatedParetoIntegralCCDF(t *testing.T) {
	p := TruncatedPareto{Theta: 0.02, Alpha: 1.2, Cutoff: 5}
	// IntegralCCDF(0) = Mean (Eq. 25).
	if !numerics.AlmostEqual(p.IntegralCCDF(0), p.Mean(), 1e-12) {
		t.Fatalf("IntegralCCDF(0) = %v, Mean = %v", p.IntegralCCDF(0), p.Mean())
	}
	// Matches quadrature at interior points.
	for _, a := range []float64{0.01, 0.5, 2, 4.9} {
		want := numerics.Trapezoid(p.CCDF, a, p.Cutoff, 1_000_000)
		if !numerics.AlmostEqual(p.IntegralCCDF(a), want, 1e-5) {
			t.Errorf("a=%v: %v vs quadrature %v", a, p.IntegralCCDF(a), want)
		}
	}
	// Zero at and beyond the cutoff; negative a clamps to 0.
	if p.IntegralCCDF(5) != 0 || p.IntegralCCDF(7) != 0 {
		t.Fatal("IntegralCCDF beyond the cutoff must be 0")
	}
	if p.IntegralCCDF(-1) != p.Mean() {
		t.Fatal("negative a should clamp to 0")
	}
	if p.Upper() != 5 {
		t.Fatalf("Upper = %v, want the cutoff", p.Upper())
	}
}

func TestTruncatedParetoCCDFAtLeast(t *testing.T) {
	p := TruncatedPareto{Theta: 0.5, Alpha: 1.5, Cutoff: 3}
	if p.CCDFAtLeast(0) != 1 || p.CCDFAtLeast(-1) != 1 {
		t.Fatal("Pr{T >= 0} must be 1")
	}
	// Below the cutoff the law is continuous: >= equals >.
	if p.CCDFAtLeast(1) != p.CCDF(1) {
		t.Fatal("continuous region: CCDFAtLeast must equal CCDF")
	}
	// At the cutoff: the atom.
	if !numerics.AlmostEqual(p.CCDFAtLeast(3), p.AtomMass(), 1e-15) {
		t.Fatalf("Pr{T >= Tc} = %v, atom = %v", p.CCDFAtLeast(3), p.AtomMass())
	}
	if p.CCDFAtLeast(3.1) != 0 {
		t.Fatal("Pr{T >= t} beyond the cutoff must be 0")
	}
}

// tailLaw is a law with the concrete methods its TailFunc is checked
// against.
type tailLaw interface {
	Interarrival
	CCDF(float64) float64
	CCDFAtLeast(float64) float64
	IntegralCCDF(float64) float64
}

// tailPoint is one evaluation of a law's TailFunc at x. tol is zero where
// the three values must be bitwise equal to the concrete methods'; in the
// Pareto's continuous region it is the relative tolerance, and head the
// scale of the integral's error.
type tailPoint struct {
	law                 tailLaw
	x, gt, ge, integral float64
	tol, head           float64
}

// tailPoints evaluates TailFunc, the one law evaluation the solver's grid
// tables read, at every regime boundary (negative, zero, continuous
// region, the cutoff atom, beyond the cutoff) and at random points of the
// continuous region, for a finite and an infinite cutoff and a
// hyperexponential. The hyperexponential's values must be bitwise equal to
// its concrete methods'. The Pareto's evaluate u^(−α) as exp(−α·log u)
// with u = (t+θ)/θ, so below the cutoff they may differ from math.Pow's by
// a few ε·(1 + α·log u) relative; the integral's error is relative to its
// head term θ/(α−1)·u^(1−α), since near the cutoff the head and the
// cutoff's tail term cancel. At t <= 0, at the cutoff and beyond it they
// must be exact.
func tailPoints(t *testing.T) []tailPoint {
	t.Helper()
	p := TruncatedPareto{Theta: 0.5, Alpha: 1.5, Cutoff: 3}
	pinf := TruncatedPareto{Theta: 0.5, Alpha: 1.5, Cutoff: math.Inf(1)}
	paper := TruncatedPareto{Theta: 0.0136, Alpha: 1.34, Cutoff: 10}
	h, err := NewHyperexponential([]float64{0.3, 0.7}, []float64{0.1, 2})
	if err != nil {
		t.Fatal(err)
	}
	points := []float64{-1, 0, 1e-9, 0.5, 1, 2.999, 3, 3.1, 10, 100, 1e6}
	rng := rand.New(rand.NewSource(7))
	const eps = 0x1p-52
	var out []tailPoint
	for _, law := range []tailLaw{p, pinf, paper, h} {
		upper := math.Min(law.Upper(), 1e4)
		xs := append([]float64(nil), points...)
		for k := 0; k < 2000; k++ {
			xs = append(xs, rng.Float64()*upper, upper*math.Pow(1e-12, rng.Float64()))
		}
		tail := law.TailFunc()
		for _, x := range xs {
			pt := tailPoint{law: law, x: x}
			pt.gt, pt.ge, pt.integral = tail(x)
			if par, isPareto := law.(TruncatedPareto); isPareto && x > 0 && x < par.Cutoff {
				u := (x + par.Theta) / par.Theta
				pt.tol = 4 * eps * (1 + par.Alpha*math.Log(u))
				pt.head = par.Theta / (par.Alpha - 1) * math.Pow(u, 1-par.Alpha)
			}
			out = append(out, pt)
		}
	}
	return out
}

// TestCCDFBothBitwise is the contract of TailFunc's first two values,
// Pr{T > t} and Pr{T >= t}, against CCDF and CCDFAtLeast: bitwise equal
// wherever tailPoints asks for it, and in the Pareto's continuous region
// within its tolerance of CCDF, with the two values equal.
func TestCCDFBothBitwise(t *testing.T) {
	for _, pt := range tailPoints(t) {
		wantGt, wantGe := pt.law.CCDF(pt.x), pt.law.CCDFAtLeast(pt.x)
		ok := pt.gt == wantGt && pt.ge == wantGe
		if pt.tol > 0 {
			ok = math.Abs(pt.gt-wantGt) <= pt.tol*wantGt && pt.ge == pt.gt
		}
		if !ok {
			t.Errorf("%v TailFunc()(%v) = (%v, %v, ·), want (%v, %v, ·) within %.3g relative",
				pt.law, pt.x, pt.gt, pt.ge, wantGt, wantGe, pt.tol)
		}
	}
}

// TestIntegralCCDFFuncBitwise is the contract of TailFunc's third value,
// ∫_t^∞ Pr{T > s} ds, against IntegralCCDF: bitwise equal wherever
// tailPoints asks for it, including clamped and beyond-cutoff inputs, and
// in the Pareto's continuous region within its tolerance of the head term.
func TestIntegralCCDFFuncBitwise(t *testing.T) {
	for _, pt := range tailPoints(t) {
		want := pt.law.IntegralCCDF(pt.x)
		ok := pt.integral == want
		if pt.tol > 0 {
			ok = math.Abs(pt.integral-want) <= pt.tol*pt.head
		}
		if !ok {
			t.Errorf("%v TailFunc()(%v) = (·, ·, %v), want (·, ·, %v) within %.3g of %v",
				pt.law, pt.x, pt.integral, want, pt.tol, pt.head)
		}
	}
}

func TestNewHyperexponentialValidation(t *testing.T) {
	if _, err := NewHyperexponential(nil, nil); err == nil {
		t.Fatal("want error on empty mixture")
	}
	if _, err := NewHyperexponential([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want error on length mismatch")
	}
	if _, err := NewHyperexponential([]float64{-1, 2}, []float64{1, 1}); err == nil {
		t.Fatal("want error on negative weight")
	}
	if _, err := NewHyperexponential([]float64{1}, []float64{0}); err == nil {
		t.Fatal("want error on zero scale")
	}
	if _, err := NewHyperexponential([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("want error on zero total weight")
	}
	// Weights are renormalized.
	h, err := NewHyperexponential([]float64{2, 2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(h.Weights[0], 0.5, 1e-12) {
		t.Fatalf("weights not renormalized: %v", h.Weights)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHyperexponentialMoments(t *testing.T) {
	h, err := NewHyperexponential([]float64{0.3, 0.7}, []float64{0.1, 2})
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.3*0.1 + 0.7*2
	if !numerics.AlmostEqual(h.Mean(), wantMean, 1e-12) {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	wantM2 := 2 * (0.3*0.01 + 0.7*4)
	if !numerics.AlmostEqual(h.SecondMoment(), wantM2, 1e-12) {
		t.Fatalf("E[T²] = %v, want %v", h.SecondMoment(), wantM2)
	}
	if !numerics.AlmostEqual(h.Variance(), wantM2-wantMean*wantMean, 1e-12) {
		t.Fatalf("variance = %v", h.Variance())
	}
	if !math.IsInf(h.Upper(), 1) {
		t.Fatal("hyperexponential must be unbounded")
	}
}

func TestHyperexponentialCCDFAndIntegral(t *testing.T) {
	h, err := NewHyperexponential([]float64{0.5, 0.5}, []float64{0.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.CCDF(-1) != 1 || h.CCDF(0) != 1 {
		t.Fatal("CCDF at 0 must be 1")
	}
	// Against quadrature.
	for _, a := range []float64{0, 0.3, 2, 10} {
		want := numerics.Trapezoid(h.CCDF, a, 200, 2_000_000)
		if !numerics.AlmostEqual(h.IntegralCCDF(a), want, 1e-5) {
			t.Errorf("a=%v: IntegralCCDF %v vs quadrature %v", a, h.IntegralCCDF(a), want)
		}
	}
	// CCDFAtLeast coincides with CCDF away from 0 (continuous law).
	if h.CCDFAtLeast(1.5) != h.CCDF(1.5) {
		t.Fatal("continuous law: >= must equal >")
	}
	if h.CCDFAtLeast(0) != 1 {
		t.Fatal("Pr{T >= 0} = 1")
	}
}

func TestHyperexponentialResidualCCDF(t *testing.T) {
	h, err := NewHyperexponential([]float64{0.6, 0.4}, []float64{0.2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.ResidualCCDF(0) != 1 {
		t.Fatal("residual ccdf at 0 must be 1")
	}
	// The residual law is the scale-weighted mixture of the same
	// exponentials: r(t) = Σ (w_k τ_k/Σw_jτ_j)·e^{−t/τ_k}.
	norm := 0.6*0.2 + 0.4*3
	for _, tt := range []float64{0.1, 1, 5} {
		want := (0.6*0.2*math.Exp(-tt/0.2) + 0.4*3*math.Exp(-tt/3)) / norm
		if !numerics.AlmostEqual(h.ResidualCCDF(tt), want, 1e-12) {
			t.Errorf("t=%v: residual %v, want %v", tt, h.ResidualCCDF(tt), want)
		}
	}
}

func TestHyperexponentialSampleMoments(t *testing.T) {
	h, err := NewHyperexponential([]float64{0.25, 0.75}, []float64{0.05, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var acc numerics.Accumulator
	n := 300000
	for i := 0; i < n; i++ {
		s := h.Sample(rng)
		if s < 0 {
			t.Fatalf("negative sample %v", s)
		}
		acc.Add(s)
	}
	if got := acc.Sum() / float64(n); !numerics.AlmostEqual(got, h.Mean(), 0.02) {
		t.Fatalf("sample mean %v, want ≈ %v", got, h.Mean())
	}
}

func TestHyperexponentialSingleComponentIsExponential(t *testing.T) {
	h, err := NewHyperexponential([]float64{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.5, 1, 4} {
		if !numerics.AlmostEqual(h.CCDF(tt), math.Exp(-tt/2), 1e-12) {
			t.Fatalf("CCDF(%v) = %v", tt, h.CCDF(tt))
		}
	}
	if h.String() == "" {
		t.Fatal("String should describe the mixture")
	}
}
