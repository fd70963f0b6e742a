package solver_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lrd/internal/core"
	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// The accuracy contract of the cold start. A cold solve starts at the first
// rung whose upper chain can drain and, for bounded epoch laws, its upper
// process at a certified exponential (start.go). Both are valid by
// Prop. II.1, so every cold bracket must agree with the paper's start
// (ladder from InitialBins, empty and full) and with the exact oracles, and
// the certified start must lie above the stationary occupancy. Prop. II.1
// holds in exact arithmetic, so each comparison allows the solver's
// absolute roundoff slack.

// accuracyCase is one model the contract is checked on.
type accuracyCase struct {
	name  string
	m     solver.Model
	cfg   solver.Config
	src   source.Source // the registry model, or nil
	heavy bool          // skipped under -short
}

// accuracyCases returns the solver-golden random models; MTVModel(1) at
// util 0.8 on a slice of the Fig. 4 grid; and each registry model at three
// utilizations, built from a three-state reference source.
func accuracyCases(t *testing.T) []accuracyCase {
	t.Helper()
	var out []accuracyCase
	for _, c := range solver.GoldenCases(t) {
		out = append(out, accuracyCase{name: "golden/" + c.Name, m: c.Model, cfg: c.Cfg})
	}
	tm, err := core.MTVModel(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0.01, 0.35, 3} {
		for _, tc := range []float64{0.05, 0.129, 2.24, math.Inf(1)} {
			ref, err := tm.Source(tc)
			if err != nil {
				t.Fatal(err)
			}
			m, err := solver.NewModelNormalized(source.NewFluid(ref), 0.8, b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, accuracyCase{name: fmt.Sprintf("mtv/b=%g/tc=%g", b, tc), m: m, heavy: b > 0.01})
		}
	}
	ref, err := fluid.FromTraceStats(dist.MustMarginal([]float64{0, 1, 2.5}, []float64{0.3, 0.4, 0.3}), 0.8, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The ams default peak, twice the mean, would equal the service rate at
	// util 0.5, where its closed form does not apply.
	params := map[string]source.Params{"ams": {"peak": 3 * ref.MeanRate()}}
	for _, name := range []string{"fluid", "onoff", "markov", "mmfq", "ams"} {
		src, err := source.Build(name, ref, params[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, util := range []float64{0.5, 0.8, 0.95} {
			m, err := solver.NewModelNormalized(src, util, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, accuracyCase{name: fmt.Sprintf("%s/util=%g", name, util), m: m, src: src, heavy: util > 0.5})
		}
	}
	return out
}

// TestColdStartBracketsAgree: (a) every cold bracket intersects the paper
// start's bracket, and (b) its lower bound never exceeds an exact oracle's
// infinite-buffer overflow probability, both within the roundoff slack.
func TestColdStartBracketsAgree(t *testing.T) {
	ctx := context.Background()
	for _, c := range accuracyCases(t) {
		if c.heavy && testing.Short() {
			continue
		}
		slack := solver.Slack
		got, err := solver.SolveModelContext(ctx, c.m, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		paper, err := solver.SolvePaperStart(ctx, c.m, c.cfg)
		if err != nil {
			t.Fatalf("%s: paper start: %v", c.name, err)
		}
		if got.Lower > paper.Upper+slack || paper.Lower > got.Upper+slack {
			t.Errorf("%s: cold bracket [%g, %g] misses the paper start's [%g, %g]",
				c.name, got.Lower, got.Upper, paper.Lower, paper.Upper)
		}
		if oracle, ok := c.src.(source.OverflowOracle); ok {
			exact, err := oracle.ExactOverflow(c.m.ServiceRate, c.m.Buffer)
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			if got.Lower > exact+slack {
				t.Errorf("%s: lower bound %g exceeds the exact overflow %g", c.name, got.Lower, exact)
			}
		}
	}
}

// TestCertifiedStartDominates: where the upper process starts at a
// certified exponential, its θ satisfies E[e^{θW}] <= 1 by an independent
// quadrature, the start's ccdf lies on or above e^{−θx} on [0, B), and (c)
// at every grid point of a tight cold solve (RelGap 1e-3) it lies above
// that solve's lower occupancy ccdf, within the roundoff slack.
func TestCertifiedStartDominates(t *testing.T) {
	certified := 0
	for _, c := range accuracyCases(t) {
		if c.heavy && testing.Short() {
			continue
		}
		theta := solver.StartTheta(c.m)
		if theta == 0 {
			continue
		}
		certified++
		if raw := solver.CertifyTheta(c.m); workMGF(c.m, raw) > 1 {
			t.Errorf("%s: E[e^{θW}] = 1%+g > 1 at the certified θ = %g", c.name, workMGF(c.m, raw)-1, raw)
		}
		it, err := solver.NewModelIterator(c.m, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		start, d := ccdf(it.UpperOccupancy()), it.GridStep()
		for j := 0; j+1 < len(start); j++ {
			if x := (float64(j) + 0.5) * d; start[j] < math.Exp(-theta*x)-1e-15 {
				t.Errorf("%s: start ccdf %g below e^{-θx} = %g at x = %g", c.name, start[j], math.Exp(-theta*x), x)
				break
			}
		}
		// Any lower iterate lies below the stationary occupancy, so a
		// budget (at most 2048 bins, 2000 steps) keeps the reference valid.
		tight := c.cfg
		tight.RelGap, tight.MaxIterations = 1e-3, 2000
		if tight.MaxBins == 0 || tight.MaxBins > 2048 {
			tight.MaxBins = 2048
		}
		r, err := solver.SolveModel(c.m, tight)
		if err != nil {
			t.Fatal(err)
		}
		lower, ms, mf := ccdf(r.LowerOccupancy), it.Bins(), r.Bins
		if mf%ms != 0 {
			t.Fatalf("%s: tight solve at M = %d is not a refinement of the start's M = %d", c.name, mf, ms)
		}
		slack := solver.Slack
		for i := range lower {
			// Pr{S > i·d_f}: the start's ccdf at the coarse point below.
			if g := start[i*ms/mf]; g < lower[i]-slack {
				t.Errorf("%s: start ccdf %g below the tight lower ccdf %g at x = %g", c.name, g, lower[i], float64(i)*r.GridStep)
				break
			}
		}
	}
	if certified == 0 {
		t.Fatal("no case started at a certified exponential")
	}
}

// ccdf returns Pr{X > j·d} for a pmf over {0, d, …}.
func ccdf(pmf []float64) []float64 {
	out := make([]float64, len(pmf))
	var tail float64
	for j := len(pmf) - 1; j >= 0; j-- {
		out[j] = tail
		tail += pmf[j]
	}
	return out
}

// workMGF evaluates E[e^{θW}] = Σ_i π_i·(1 + a_i·∫ e^{a_i t}·Pr{T > t} dt),
// a_i = θ(λ_i−c), by a composite Simpson rule on 20,000 cells of the
// epoch law's bounded support, geometric in t + E[T]/64.
func workMGF(m solver.Model, theta float64) float64 {
	law := m.Interarrival
	const n = 20000
	tau := law.Mean() / 64
	span := math.Log1p(law.Upper() / tau)
	t := make([]float64, n+1)
	for k := range t {
		t[k] = tau * math.Expm1(span*float64(k)/n)
	}
	t[n] = law.Upper()
	// The ccdf at each cell's ends and midpoint, left of the atom at Upper.
	ccdf := func(x float64) float64 { gt, _ := law.CCDFBoth(x); return gt }
	pl, pm, pr := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := range pl {
		pl[k], pm[k], pr[k] = ccdf(t[k]), ccdf((t[k]+t[k+1])/2), ccdf(math.Nextafter(t[k+1], 0))
	}
	var sum float64
	for i := 0; i < m.Marginal.Len(); i++ {
		a := theta * (m.Marginal.Rate(i) - m.ServiceRate)
		var integral float64
		for k := range pl {
			l, r := t[k], t[k+1]
			integral += (r - l) / 6 * (math.Exp(a*l)*pl[k] + 4*math.Exp(a*(l+r)/2)*pm[k] + math.Exp(a*r)*pr[k])
		}
		sum += m.Marginal.Prob(i) * (1 + a*integral)
	}
	return sum
}
