package solver

import (
	"math"
	"math/rand"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/numerics"
	"lrd/internal/sim"
)

// onOffSource is a two-rate source with mean 1, utilization 0.8 at c = 1.25.
func onOffSource(t *testing.T, cutoff float64) fluid.Source {
	t.Helper()
	m := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	src, err := fluid.New(m, dist.TruncatedPareto{Theta: 0.05, Alpha: 1.4, Cutoff: cutoff})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// videoSource mimics a multi-rate VBR marginal.
func videoSource(t *testing.T, cutoff float64) fluid.Source {
	t.Helper()
	m := dist.MustMarginal(
		[]float64{4, 6, 8, 10, 12, 14, 16},
		[]float64{0.05, 0.15, 0.25, 0.25, 0.18, 0.08, 0.04},
	)
	src, err := fluid.FromTraceStats(m, 0.83, 0.08, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestNewQueueValidation(t *testing.T) {
	src := onOffSource(t, 1)
	if _, err := NewQueue(src, 0, 1); err == nil {
		t.Fatal("want error for zero service rate")
	}
	if _, err := NewQueue(src, 1, 0); err == nil {
		t.Fatal("want error for zero buffer")
	}
	if _, err := NewQueue(src, 1, math.Inf(1)); err == nil {
		t.Fatal("want error for infinite buffer")
	}
	bad := src
	bad.Interarrival.Theta = -1
	if _, err := NewQueue(bad, 1, 1); err == nil {
		t.Fatal("want error for invalid interarrival law")
	}
	if _, err := NewQueue(fluid.Source{}, 1, 1); err == nil {
		t.Fatal("want error for empty marginal")
	}
}

func TestNewQueueNormalized(t *testing.T) {
	src := onOffSource(t, 1)
	q, err := NewQueueNormalized(src, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(q.Utilization(), 0.8, 1e-12) {
		t.Fatalf("utilization = %v", q.Utilization())
	}
	if !numerics.AlmostEqual(q.NormalizedBuffer(), 0.5, 1e-12) {
		t.Fatalf("normalized buffer = %v", q.NormalizedBuffer())
	}
	if _, err := NewQueueNormalized(src, 1.2, 0.5); err == nil {
		t.Fatal("want error for utilization > 1")
	}
}

func TestIncrementPMFsSumToOne(t *testing.T) {
	for _, cutoff := range []float64{0.5, 5, math.Inf(1)} {
		q, err := NewQueueNormalized(onOffSource(t, cutoff), 0.8, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		it, err := NewIterator(q, Config{InitialBins: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range [][]float64{it.wl, it.wh} {
			if len(w) != 2*it.bins+1 {
				t.Fatalf("w length %d, want %d", len(w), 2*it.bins+1)
			}
			sum := numerics.KahanSum(w)
			if !numerics.AlmostEqual(sum, 1, 1e-9) {
				t.Fatalf("cutoff=%v: pmf mass = %v", cutoff, sum)
			}
			for i, v := range w {
				if v < 0 {
					t.Fatalf("negative pmf entry %v at %d", v, i)
				}
			}
		}
	}
}

func TestIncrementPMFStochasticOrdering(t *testing.T) {
	// The lower pmf rounds W down, the upper rounds up, so the partial sums
	// (CDFs) must satisfy CDF_L(i) >= CDF_H(i) pointwise (W_L ≤st W_H).
	q, err := NewQueueNormalized(onOffSource(t, 2), 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(q, Config{InitialBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	var cl, ch float64
	for i := range it.wl {
		cl += it.wl[i]
		ch += it.wh[i]
		if cl < ch-1e-9 {
			t.Fatalf("ordering violated at bin %d: CDF_L=%v < CDF_H=%v", i, cl, ch)
		}
	}
}

func TestWorkCDFMonotoneAndBounds(t *testing.T) {
	q, err := NewQueueNormalized(videoSource(t, 3), 0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(q, Config{InitialBins: 32})
	if err != nil {
		t.Fatal(err)
	}
	both := q.Source.Interarrival.CCDFBoth
	xs := numerics.Linspace(-q.Buffer*2, q.Buffer*2, 401)
	prev := -1.0
	for _, x := range xs {
		s, v := it.workCDF(x, both)
		if v < prev-1e-12 {
			t.Fatalf("workCDF not monotone at %v", x)
		}
		if v < 0 || v > 1 {
			t.Fatalf("workCDF out of range: %v", v)
		}
		if s > v+1e-12 {
			t.Fatalf("strict CDF exceeds CDF at %v", x)
		}
		prev = v
	}
	// Far tails.
	maxW := (q.Source.Marginal.Max() - q.ServiceRate) * q.Source.Interarrival.Cutoff
	if _, got := it.workCDF(maxW+1, both); got != 1 {
		t.Fatalf("CDF beyond max W = %v, want 1", got)
	}
	minW := (q.Source.Marginal.Min() - q.ServiceRate) * q.Source.Interarrival.Cutoff
	if _, got := it.workCDF(minW-1, both); got != 0 {
		t.Fatalf("CDF below min W = %v, want 0", got)
	}
}

// TestWorkCDFCutoffAtom: with rates {0, 2} at c = 1 the work increment
// W = T·(λ−c) inherits the Pareto atom at Tc as atoms of half its mass at
// ±Tc, so Pr{W <= x} − Pr{W < x} is ½·AtomMass there and 0 at points of
// continuity. Each drift branch of workCDF must take Pr{T >= t} for one
// cdf and Pr{T > t} for the other; a swap in either branch moves the atom.
func TestWorkCDFCutoffAtom(t *testing.T) {
	law := dist.TruncatedPareto{Theta: 0.05, Alpha: 1.4, Cutoff: 0.5}
	m, err := NewModel(dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5}), law, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewModelIterator(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ x, jump float64 }{
		{-0.5, law.AtomMass() / 2}, {0.5, law.AtomMass() / 2}, {-0.25, 0}, {0.25, 0},
	} {
		strict, nonstrict := it.workCDF(c.x, law.CCDFBoth)
		if got := nonstrict - strict; math.Abs(got-c.jump) > 1e-15 {
			t.Errorf("x=%v: Pr{W <= x} − Pr{W < x} = %v, want %v", c.x, got, c.jump)
		}
	}
}

func TestExpectedLossGivenOccupancyMatchesQuadrature(t *testing.T) {
	// E[W_l|Q=x] = ∫₀^∞ Pr{W > y + B − x} dy, evaluated numerically from the
	// work ccdf and compared against the closed form.
	q, err := NewQueueNormalized(videoSource(t, 3), 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(q, Config{InitialBins: 32})
	if err != nil {
		t.Fatal(err)
	}
	maxW := (q.Source.Marginal.Max() - q.ServiceRate) * q.Source.Interarrival.Cutoff
	for _, frac := range []float64{0, 0.25, 0.5, 0.9, 1} {
		x := frac * q.Buffer
		want := numerics.Trapezoid(func(y float64) float64 {
			_, cdf := it.workCDF(y+q.Buffer-x, q.Source.Interarrival.CCDFBoth)
			return 1 - cdf
		}, 0, maxW, 400000)
		got := it.ExpectedLossGivenOccupancy(x)
		if !numerics.AlmostEqual(got, want, 1e-3) {
			t.Errorf("x=%v: closed form %v, quadrature %v", x, got, want)
		}
	}
}

func TestExpectedLossIncreasingInOccupancy(t *testing.T) {
	q, err := NewQueueNormalized(onOffSource(t, 5), 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(q, Config{InitialBins: 32})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, x := range numerics.Linspace(0, q.Buffer, 101) {
		v := it.ExpectedLossGivenOccupancy(x)
		if v < prev-1e-15 {
			t.Fatalf("E[W_l|Q] not increasing at x=%v", x)
		}
		prev = v
	}
}

func TestBoundsOrderedAndMonotone(t *testing.T) {
	// Proposition II.1: at every n, lower <= upper; from the paper's start
	// (empty and full) the lower bound is non-decreasing and the upper
	// bound non-increasing in n. A cold solve of this finite-cutoff source
	// would start certified and report the running minimum of its upper
	// iterates, which cannot increase; the paper's start keeps the raw
	// upper iterates under test (TestCertifiedUpperIteratesBound covers
	// the certified ones).
	q, err := NewQueueNormalized(onOffSource(t, 1), 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	it, err := newPaperStartIterator(q.Model(), Config{InitialBins: 100})
	if err != nil {
		t.Fatal(err)
	}
	prevLo, prevHi := it.LossBounds()
	for n := 0; n < 50; n++ {
		it.Step()
		lo, hi := it.LossBounds()
		if lo > hi+1e-12 {
			t.Fatalf("n=%d: lower %v exceeds upper %v", n, lo, hi)
		}
		if lo < prevLo-1e-9*math.Max(prevLo, 1e-300) {
			t.Fatalf("n=%d: lower bound decreased: %v -> %v", n, prevLo, lo)
		}
		if hi > prevHi+1e-9*prevHi {
			t.Fatalf("n=%d: upper bound increased: %v -> %v", n, prevHi, hi)
		}
		prevLo, prevHi = lo, hi
	}
}

func TestBoundsTightenWithResolution(t *testing.T) {
	// Running to stationarity at M and 2M: the bracket at 2M must be nested
	// inside (or equal to) the bracket at M.
	q, err := NewQueueNormalized(onOffSource(t, 1), 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bins int) (lo, hi float64) {
		it, err := NewIterator(q, Config{InitialBins: bins})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 400; n++ {
			it.Step()
		}
		return it.LossBounds()
	}
	loCoarse, hiCoarse := run(64)
	loFine, hiFine := run(128)
	if loFine < loCoarse-1e-9 {
		t.Fatalf("finer lower bound regressed: %v < %v", loFine, loCoarse)
	}
	if hiFine > hiCoarse+1e-9 {
		t.Fatalf("finer upper bound regressed: %v > %v", hiFine, hiCoarse)
	}
}

func TestOccupancyVectorsAreDistributions(t *testing.T) {
	q, err := NewQueueNormalized(videoSource(t, 1), 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(q, Config{InitialBins: 100})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 30; n++ {
		it.Step()
	}
	for _, qv := range [][]float64{it.LowerOccupancy(), it.UpperOccupancy()} {
		if len(qv) != it.Bins()+1 {
			t.Fatalf("occupancy length %d, want %d", len(qv), it.Bins()+1)
		}
		if s := numerics.KahanSum(qv); !numerics.AlmostEqual(s, 1, 1e-9) {
			t.Fatalf("occupancy mass = %v", s)
		}
		for _, v := range qv {
			if v < 0 {
				t.Fatalf("negative occupancy mass %v", v)
			}
		}
	}
}

func TestSolveAgreesWithMonteCarlo(t *testing.T) {
	// The decisive cross-validation: solver bracket vs an independent
	// Monte-Carlo simulation of the same queue.
	cases := []struct {
		name   string
		src    fluid.Source
		util   float64
		nbuf   float64
		epochs int
	}{
		{"onoff-smallbuf", onOffSource(t, 1), 0.8, 0.1, 4_000_000},
		{"onoff-cutoff5", onOffSource(t, 5), 0.8, 0.3, 4_000_000},
		{"video", videoSource(t, 2), 0.8, 0.2, 4_000_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewQueueNormalized(tc.src, tc.util, tc.nbuf)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(q, Config{RelGap: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("solver did not converge: %+v", res)
			}
			mc, err := sim.MonteCarloLoss(tc.src, q.ServiceRate, q.Buffer, tc.epochs, 10000, rand.New(rand.NewSource(77)))
			if err != nil {
				t.Fatal(err)
			}
			got := mc.LossRate()
			// Allow Monte-Carlo noise: the MC point must fall within the
			// solver bracket stretched by 15 % on each side.
			slack := 0.15 * res.Loss
			if got < res.Lower-slack || got > res.Upper+slack {
				t.Fatalf("MC loss %v outside solver bracket [%v, %v]", got, res.Lower, res.Upper)
			}
		})
	}
}

func TestSolveZeroLossRegime(t *testing.T) {
	// Huge buffer, tiny cutoff, low utilization: loss is far below the
	// floor and must be reported as exactly zero (the paper's convention).
	src := onOffSource(t, 0.05)
	q, err := NewQueueNormalized(src, 0.3, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != 0 || !res.Converged {
		t.Fatalf("want exact zero loss, got %+v", res)
	}
}

func TestSolveLossDecreasesWithBuffer(t *testing.T) {
	src := videoSource(t, 1)
	prev := math.Inf(1)
	for _, nbuf := range []float64{0.05, 0.2, 0.8} {
		q, err := NewQueueNormalized(src, 0.8, nbuf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss >= prev {
			t.Fatalf("loss did not decrease with buffer: %v at b=%v", res.Loss, nbuf)
		}
		prev = res.Loss
	}
}

func TestSolveLossIncreasesWithUtilization(t *testing.T) {
	src := videoSource(t, 1)
	prev := 0.0
	for _, util := range []float64{0.7, 0.8, 0.9} {
		q, err := NewQueueNormalized(src, util, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss <= prev {
			t.Fatalf("loss did not increase with utilization: %v at ρ=%v", res.Loss, util)
		}
		prev = res.Loss
	}
}

func TestSolveLossIncreasesWithCutoff(t *testing.T) {
	// More correlation (larger Tc) can only hurt: loss should be
	// non-decreasing in the cutoff lag. This is the mechanism behind the
	// correlation-horizon result.
	prev := 0.0
	for _, cutoff := range []float64{0.1, 0.5, 2, 8} {
		src := onOffSource(t, cutoff)
		q, err := NewQueueNormalized(src, 0.8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss < prev*0.95 { // small tolerance for independent brackets
			t.Fatalf("loss decreased with cutoff: %v at Tc=%v (prev %v)", res.Loss, cutoff, prev)
		}
		prev = res.Loss
	}
}

func TestResultRelativeGap(t *testing.T) {
	r := Result{Lower: 0.9, Upper: 1.1}
	if !numerics.AlmostEqual(r.RelativeGap(), 0.2, 1e-12) {
		t.Fatalf("gap = %v", r.RelativeGap())
	}
	if (Result{}).RelativeGap() != 0 {
		t.Fatal("zero bounds should give zero gap")
	}
}

func TestRefineProjectsExactly(t *testing.T) {
	q, err := NewQueueNormalized(onOffSource(t, 1), 0.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Both starts: the paper's, whose reported upper bound is the raw
	// iterate, and the certified cold one, whose reported bound is the
	// running minimum, so the raw losses of the occupancy vectors are what
	// the projection must keep.
	starts := []struct {
		name string
		new  func(Model, Config) (*Iterator, error)
	}{{"paper", newPaperStartIterator}, {"cold", NewModelIterator}}
	for _, s := range starts {
		it, err := s.new(q.Model(), Config{InitialBins: 32, MaxBins: 128})
		if err != nil {
			t.Fatal(err)
		}
		if it.Bins() != 32 || it.certified != (s.name == "cold") {
			t.Fatalf("%s: first rung %d, certified %v", s.name, it.Bins(), it.certified)
		}
		for n := 0; n < 10; n++ {
			it.Step()
		}
		loBefore, hiBefore := it.lossOf(it.ql), it.lossOf(it.qh)
		if !it.Refine() {
			t.Fatalf("%s: refine should succeed below MaxBins", s.name)
		}
		if it.Bins() != 64 {
			t.Fatalf("%s: bins = %d, want 64", s.name, it.Bins())
		}
		lo, hi := it.lossOf(it.ql), it.lossOf(it.qh)
		// The projection is exact, so the loss bounds are unchanged (the
		// loss table at even fine-grid points equals the coarse table).
		if !numerics.AlmostEqual(lo, loBefore, 1e-9) || !numerics.AlmostEqual(hi, hiBefore, 1e-9) {
			t.Fatalf("%s: refine moved the bounds: (%v,%v) -> (%v,%v)", s.name, loBefore, hiBefore, lo, hi)
		}
		if s.name == "paper" {
			if rlo, rhi := it.LossBounds(); rlo != lo || rhi != hi {
				t.Fatalf("paper start reports (%v,%v), raw (%v,%v)", rlo, rhi, lo, hi)
			}
		}
		for _, qv := range [][]float64{it.LowerOccupancy(), it.UpperOccupancy()} {
			if s := numerics.KahanSum(qv); !numerics.AlmostEqual(s, 1, 1e-9) {
				t.Fatalf("mass after refine = %v", s)
			}
		}
		// Refinement stops at MaxBins.
		if !it.Refine() {
			t.Fatalf("%s: second refine should still fit (64 -> 128)", s.name)
		}
		if it.Refine() {
			t.Fatalf("%s: refine beyond MaxBins must fail", s.name)
		}
		it.release()
	}
}

// TestColdStartRule: the first rung is the first whose grid step is at
// most max(|E[W]|, E[W²]/(2B)), so a probe near utilization 1 stays at
// InitialBins although its drain alone would ask for M = 8192; and the
// upper start is certified only where θ = certFloor/B certifies.
func TestColdStartRule(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, c := range []struct {
		util, nbuf float64
		bins       int
		certified  bool
	}{
		{0.999, 0.5, 128, false},
		{0.8, 3, 256, true},
		{0.8, 0.2, 128, false},
		{0.7, 0.2, 128, true},
	} {
		q, err := NewQueueNormalized(onOffSource(t, 1), c.util, c.nbuf)
		if err != nil {
			t.Fatal(err)
		}
		m := q.Model()
		bins := coldBins(m, cfg)
		theta := startTheta(m)
		if bins != c.bins || (theta > 0) != c.certified {
			t.Errorf("util %g, b %g: first rung %d, θ·B %v; want %d, certified %v",
				c.util, c.nbuf, bins, theta*m.Buffer, c.bins, c.certified)
		}
		if c.certified && theta*m.Buffer < certFloor {
			t.Errorf("util %g, b %g: certified θ·B %v below certFloor", c.util, c.nbuf, theta*m.Buffer)
		}
	}
}

// TestCertifiedUpperIteratesBound: from a certified upper start every raw
// upper iterate, not only the running minimum LossBounds reports, bounds
// the loss from above (Prop. II.1 from a start >=st the stationary
// occupancy), across steps and refinements: none falls below the lower
// bound of a tight solve, within the roundoff slack. The reported upper
// bound is exactly the least raw iterate so far.
func TestCertifiedUpperIteratesBound(t *testing.T) {
	q, err := NewQueueNormalized(onOffSource(t, 1), 0.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m := q.Model()
	// Any lower iterate bounds the loss from below; this one is within 0.2%
	// of its upper bound.
	tight, err := SolveModel(m, Config{RelGap: 1e-3, MaxBins: 4096, MaxIterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !(tight.Lower > 0) {
		t.Fatalf("reference solve: lower %v", tight.Lower)
	}
	it, err := NewModelIterator(m, Config{InitialBins: 32, MaxBins: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer it.release()
	if !it.certified {
		t.Fatal("a finite-cutoff model should start certified")
	}
	least := it.lossOf(it.qh)
	for n := 0; n < 300; n++ {
		if n%100 == 50 {
			it.Refine()
		} else if err := it.Step(); err != nil {
			t.Fatal(err)
		}
		raw := it.lossOf(it.qh)
		least = math.Min(least, raw)
		lo, hi := it.LossBounds()
		if raw < tight.Lower-slack || raw < lo-slack {
			t.Fatalf("n=%d, M=%d: raw upper %v below the lower bounds %v (tight) / %v", n, it.Bins(), raw, tight.Lower, lo)
		}
		if hi != least {
			t.Fatalf("n=%d: reported upper %v, least raw iterate %v", n, hi, least)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.InitialBins <= 0 || c.MaxBins < c.InitialBins || c.RelGap != 0.2 {
		t.Fatalf("bad defaults: %+v", c)
	}
	// MaxBins below InitialBins gets raised.
	c = Config{InitialBins: 512, MaxBins: 64}.withDefaults()
	if c.MaxBins != 512 {
		t.Fatalf("MaxBins = %d, want clamped to 512", c.MaxBins)
	}
}

// TestConfigHashRevision: the hash covers the solver revision, so the
// zero Config no longer hashes to the value written by solvers before the
// cold start's first rung and certified upper start (revision 0), whose
// journals and cache entries hold results the current solver would not
// reproduce.
func TestConfigHashRevision(t *testing.T) {
	const revision0 = "acd8fc77d61a4038"
	if got := ConfigHash(Config{}); got == revision0 {
		t.Fatalf("ConfigHash(Config{}) = %s, the revision-0 hash", got)
	}
}

func TestInfiniteCutoffSolves(t *testing.T) {
	src := onOffSource(t, math.Inf(1))
	q, err := NewQueueNormalized(src, 0.6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss <= 0 {
		t.Fatalf("LRD on/off source at ρ=0.6 must lose work, got %v", res.Loss)
	}
	if res.Lower > res.Upper {
		t.Fatalf("bounds inverted: %+v", res)
	}
}

func TestSolveModelHyperexponentialAgreesWithMonteCarlo(t *testing.T) {
	// The generalized solver on a Markovian (hyperexponential) epoch law,
	// cross-validated against Monte-Carlo simulation of the same model.
	m := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	h, err := dist.NewHyperexponential([]float64{0.7, 0.3}, []float64{0.02, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	c := 1.25
	buffer := 0.25 * c
	model, err := NewModel(m, h, c, buffer)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveModel(model, Config{RelGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	// Monte Carlo with the same epoch law.
	rng := rand.New(rand.NewSource(123))
	q := sim.Queue{ServiceRate: c, Buffer: buffer}
	var arrived, lost float64
	for i := 0; i < 4_000_000; i++ {
		d := h.Sample(rng)
		r := m.Sample(rng)
		arrived += r * d
		lost += q.Offer(r, d)
	}
	mc := lost / arrived
	slack := 0.15 * res.Loss
	if mc < res.Lower-slack || mc > res.Upper+slack {
		t.Fatalf("MC loss %v outside bracket [%v, %v]", mc, res.Lower, res.Upper)
	}
}

func TestSolveModelValidation(t *testing.T) {
	m := dist.MustMarginal([]float64{1}, []float64{1})
	if _, err := NewModel(m, nil, 1, 1); err == nil {
		t.Fatal("want error on nil interarrival")
	}
	h, err := dist.NewHyperexponential([]float64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(m, h, -1, 1); err == nil {
		t.Fatal("want error on negative service rate")
	}
	model, err := NewModel(m, h, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if model.Utilization() != 0.5 || model.NormalizedBuffer() != 0.5 {
		t.Fatalf("model accessors wrong: %v %v", model.Utilization(), model.NormalizedBuffer())
	}
}

func TestResultOccupancyQuantile(t *testing.T) {
	q, err := NewQueueNormalized(onOffSource(t, 1), 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LowerOccupancy) != res.Bins+1 || len(res.UpperOccupancy) != res.Bins+1 {
		t.Fatalf("occupancy vectors missing: %d %d (bins %d)",
			len(res.LowerOccupancy), len(res.UpperOccupancy), res.Bins)
	}
	if res.GridStep <= 0 {
		t.Fatalf("grid step %v", res.GridStep)
	}
	// Quantiles are ordered (lower process is stochastically smaller),
	// monotone in u, and land inside [0, B].
	prevLo, prevHi := -1.0, -1.0
	for _, u := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		lo, hi := res.OccupancyQuantile(u)
		if lo > hi+1e-12 {
			t.Fatalf("u=%v: lower quantile %v above upper %v", u, lo, hi)
		}
		if lo < prevLo || hi < prevHi {
			t.Fatalf("u=%v: quantiles not monotone", u)
		}
		if lo < 0 || hi > q.Buffer+1e-9 {
			t.Fatalf("u=%v: quantiles outside [0, B]: %v %v", u, lo, hi)
		}
		prevLo, prevHi = lo, hi
	}
	// Empty result degrades gracefully.
	if lo, hi := (Result{}).OccupancyQuantile(0.5); lo != 0 || hi != 0 {
		t.Fatal("empty result should give zero quantiles")
	}
}

// TestOccupancyQuantileEdges pins the domain contract: u must lie in
// (0, 1]. Out-of-domain arguments return NaN rather than a misleading
// boundary value; u = 1 is the largest valid probability and u just above
// 0 is valid too.
func TestOccupancyQuantileEdges(t *testing.T) {
	q, err := NewQueueNormalized(onOffSource(t, 1), 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0, -0.25, -1, 1.0000001, 2, math.Inf(1), math.Inf(-1), math.NaN()} {
		lo, hi := res.OccupancyQuantile(u)
		if !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Fatalf("u=%v: want NaN quantiles, got %v %v", u, lo, hi)
		}
	}
	// u = 1 is in-domain: it is the full-mass quantile, finite and <= B.
	lo, hi := res.OccupancyQuantile(1)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatal("u=1 must be valid")
	}
	if lo < 0 || hi > q.Buffer+1e-9 {
		t.Fatalf("u=1 quantiles outside [0, B]: %v %v", lo, hi)
	}
	// The smallest representable positive u is in-domain as well.
	lo, hi = res.OccupancyQuantile(math.SmallestNonzeroFloat64)
	if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 {
		t.Fatalf("tiny positive u misbehaved: %v %v", lo, hi)
	}
	// Out-of-domain on an empty Result is still NaN (domain checked first).
	if lo, hi := (Result{}).OccupancyQuantile(0); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("empty result with u=0 should give NaN")
	}
}
