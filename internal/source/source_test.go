package source_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/numerics"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// testRef is the reference source every test fits its models to: the
// paper's on/off marginal with H = 0.9 correlation cut off at 10 s.
func testRef(t *testing.T) fluid.Source {
	t.Helper()
	m := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	src, err := fluid.New(m, dist.TruncatedPareto{Theta: 0.02, Alpha: 1.2, Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestRegistryHasAllModels(t *testing.T) {
	names := source.Names()
	for _, want := range []string{"fluid", "onoff", "markov", "mmfq", "ams"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := source.Build("nosuch", testRef(t), nil); err == nil {
		t.Fatal("want error for unknown model")
	} else if !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildRejectsUnknownParams(t *testing.T) {
	ref := testRef(t)
	// fluid takes no parameters at all; markov takes horizon but not peak.
	for _, c := range []struct{ model, param string }{
		{"fluid", "horizon"},
		{"markov", "peak"},
		{"mmfq", "horizon"},
	} {
		if _, err := source.Build(c.model, ref, source.Params{c.param: 1}); err == nil {
			t.Errorf("model %q accepted parameter %q", c.model, c.param)
		}
	}
}

func TestRegisterRejectsBadNames(t *testing.T) {
	build := func(fluid.Source, source.Params) (source.Source, error) { return nil, nil }
	for _, name := range []string{"", "a,b", "a=b", "a{b", "a}b", "a b", "fluid"} {
		if err := source.Register(source.Model{Name: name, Build: build}); err == nil {
			t.Errorf("Register accepted name %q", name)
		}
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	cases := []struct {
		spec source.Spec
		want string
	}{
		{source.Spec{}, "fluid"},
		{source.Spec{Name: "fluid"}, "fluid"},
		{source.Spec{Name: "markov", Params: source.Params{"horizon": 5}}, "markov{horizon=5}"},
		{source.Spec{Name: "markov", Params: source.Params{"samples": 100, "horizon": 5}},
			"markov{horizon=5,samples=100}"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := source.ParseSpecs("", "")
	if err != nil || len(specs) != 1 || specs[0].Name != "fluid" {
		t.Fatalf("empty list = %v, %v; want single fluid", specs, err)
	}
	specs, err = source.ParseSpecs("fluid,markov,mmfq", "")
	if err != nil || len(specs) != 3 {
		t.Fatalf("three models = %v, %v", specs, err)
	}
	if _, err := source.ParseSpecs("fluid,fluid", ""); err == nil {
		t.Fatal("want error for duplicate model")
	}
	if _, err := source.ParseSpecs("nosuch", ""); err == nil {
		t.Fatal("want error for unknown model")
	}
	if _, err := source.ParseSpecs("markov", "horizon"); err == nil {
		t.Fatal("want error for malformed params")
	}
	specs, err = source.ParseSpecs("markov", "horizon=5")
	if err != nil || len(specs) != 1 || specs[0].Params["horizon"] != 5 {
		t.Fatalf("markov horizon=5 = %v, %v", specs, err)
	}
}

// TestFluidWrapperBitIdentical: solving through the registry's fluid entry
// must reproduce the direct Queue path bit for bit — the refactor's core
// compatibility guarantee.
func TestFluidWrapperBitIdentical(t *testing.T) {
	ref := testRef(t)
	q, err := solver.NewQueueNormalized(ref, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Solve(q, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := source.Spec{}.Realize(ref) // zero spec = default fluid
	if err != nil {
		t.Fatal(err)
	}
	m, err := solver.NewModelNormalized(s, 0.8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := solver.SolveModel(m, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != want.Loss || got.Lower != want.Lower || got.Upper != want.Upper ||
		got.Bins != want.Bins || got.Iterations != want.Iterations {
		t.Fatalf("registry fluid solve differs from direct Queue solve:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCrossModelConsistency is the §IV claim as a test: models fitted to
// the same reference correlation up to the correlation horizon must predict
// consistent loss, and the exact mmfq oracle must upper-bound the solver's
// finite-buffer result.
func TestCrossModelConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("solves several models")
	}
	ref := testRef(t)
	const util = 0.8

	solve := func(name string, p source.Params, nbuf float64) (solver.Result, source.Source) {
		t.Helper()
		s, err := source.Build(name, ref, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := solver.NewModelNormalized(s, util, nbuf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := solver.SolveModel(m, solver.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, s
	}

	for _, nbuf := range []float64{0.1, 0.5} {
		fl, _ := solve("fluid", nil, nbuf)

		// onoff with the default peak reproduces the same two-level marginal
		// and the same epoch law: identical loss.
		oo, _ := solve("onoff", nil, nbuf)
		if oo.Loss != fl.Loss {
			t.Errorf("buffer %g: onoff loss %g != fluid loss %g", nbuf, oo.Loss, fl.Loss)
		}

		// markov fitted over the full correlated range (horizon = cutoff)
		// must agree with the reference within 25% — far tighter than the
		// orders of magnitude separating SRD from LRD predictions (Fig. 4).
		mk, ms := solve("markov", nil, nbuf)
		if ratio := mk.Loss / fl.Loss; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("buffer %g: markov/fluid loss ratio %g outside [0.75, 1.25] (markov %g, fluid %g)",
				nbuf, ratio, mk.Loss, fl.Loss)
		}
		fq, ok := ms.(source.FitQuality)
		if !ok {
			t.Fatal("markov source does not report fit quality")
		}
		if fq.FitMaxError() > 0.05 {
			t.Errorf("markov fit sup-norm error %g > 0.05", fq.FitMaxError())
		}
		// The fitted autocorrelation tracks the reference within the
		// reported fit error (plus slack for off-grid sample points).
		for _, lag := range []float64{0.01, 0.1, 1, 5} {
			got, want := ms.Autocorrelation(lag), ref.Autocorrelation(lag)
			if math.Abs(got-want) > fq.FitMaxError()+0.01 {
				t.Errorf("markov r(%g) = %g, reference %g, |diff| > fit error %g",
					lag, got, want, fq.FitMaxError())
			}
		}

		// mmfq: the analytic infinite-buffer overflow probability
		// upper-bounds the finite-buffer loss (footnote 2), so it must not
		// fall below the solver's lower bound.
		mq, qs := solve("mmfq", nil, nbuf)
		oracle, ok := qs.(source.OverflowOracle)
		if !ok {
			t.Fatal("mmfq source has no overflow oracle")
		}
		c := qs.MeanRate() / util
		exact, err := oracle.ExactOverflow(c, nbuf*c)
		if err != nil {
			t.Fatal(err)
		}
		if !(exact > 0 && exact < 1) {
			t.Fatalf("buffer %g: exact overflow %g outside (0, 1)", nbuf, exact)
		}
		if mq.Lower > exact*1.05+1e-12 {
			t.Errorf("buffer %g: solver lower bound %g exceeds exact overflow %g",
				nbuf, mq.Lower, exact)
		}
	}
}

// TestGenerateBinnedStationary: sampling a non-fluid model produces a trace
// whose mean matches the marginal mean (the generator integrates rate over
// bins and starts from the stationary residual law).
func TestGenerateBinnedStationary(t *testing.T) {
	ref := testRef(t)
	s, err := source.Build("mmfq", ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rates, err := source.GenerateBinned(s, 2000, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 20000 {
		t.Fatalf("got %d bins, want 20000", len(rates))
	}
	var sum float64
	for _, r := range rates {
		sum += r
	}
	mean := sum / float64(len(rates))
	if math.Abs(mean-ref.MeanRate()) > 0.05 {
		t.Fatalf("sampled mean rate %g, want %g ± 0.05", mean, ref.MeanRate())
	}
}

// sampleRef is the fluid source the sampler tests draw paths from.
func sampleRef(t *testing.T) fluid.Source {
	t.Helper()
	m := dist.MustMarginal([]float64{2, 8, 16}, []float64{0.3, 0.5, 0.2})
	src, err := fluid.New(m, dist.TruncatedPareto{Theta: 0.016, Alpha: 1.2, Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestGenerateBinnedConservesWork(t *testing.T) {
	s := sampleRef(t)
	rng := rand.New(rand.NewSource(11))
	horizon, bin := 200.0, 0.01
	rates, err := source.GenerateBinned(source.NewFluid(s), horizon, bin, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != int(horizon/bin) {
		t.Fatalf("bins = %d", len(rates))
	}
	// Long-run average of the binned path ≈ λ̄ (each bin is fully covered by
	// epochs, so total work = ∫ X_t dt over the horizon).
	mean, err := numerics.Mean(rates)
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(mean, s.MeanRate(), 0.1) {
		t.Fatalf("binned mean %v, want ≈ %v", mean, s.MeanRate())
	}
	// Every bin's rate must lie within the marginal's support.
	for i, r := range rates {
		if r < s.Marginal.Min()-1e-9 || r > s.Marginal.Max()+1e-9 {
			t.Fatalf("bin %d rate %v outside [%v, %v]", i, r, s.Marginal.Min(), s.Marginal.Max())
		}
	}
}

// TestGenerateBinnedGolden pins the sampler's exact output for every
// registry model built from one fluid source: FNV-64a over the
// little-endian float64 bits of a 200 s path in 10 ms bins at seed 11. A
// mismatch means a sample path changed — its draws, their order, the
// stationary first epoch or the bin integration.
func TestGenerateBinnedGolden(t *testing.T) {
	want := map[string]string{
		"fluid":  "b38ff5824862669b",
		"onoff":  "535007e7d3f8d32c",
		"markov": "ef0d7fff76b7fde5",
		"mmfq":   "69c14663b2352660",
		"ams":    "a35bb2503f5e4487",
	}
	ref := sampleRef(t)
	for _, name := range []string{"fluid", "onoff", "markov", "mmfq", "ams"} {
		s, err := source.Build(name, ref, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rates, err := source.GenerateBinned(s, 200, 0.01, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, r := range rates {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[name] {
			t.Errorf("%s: %d bins hash to %s, want %s", name, len(rates), got, want[name])
		}
	}
}

func TestGenerateBinnedRejectsBadArgs(t *testing.T) {
	s, err := source.Build("mmfq", testRef(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := source.GenerateBinned(s, 0, 0.1, rng); err == nil {
		t.Error("want error for zero horizon")
	}
	if _, err := source.GenerateBinned(s, 10, 0, rng); err == nil {
		t.Error("want error for zero bin width")
	}
}

// TestMarkovDefaultHorizonIsCutoff: the default fit horizon is the
// reference's correlated range, so the lifted experiment config reproduces
// the historical hardcoded horizon (cutoff 10 → horizon 10).
func TestMarkovDefaultHorizonIsCutoff(t *testing.T) {
	s, err := source.Build("markov", testRef(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := s.(interface{ FitHorizon() float64 })
	if !ok {
		t.Fatal("markov source does not expose FitHorizon")
	}
	if h.FitHorizon() != 10 {
		t.Fatalf("default fit horizon = %g, want the 10 s cutoff", h.FitHorizon())
	}
}

// TestSourcesPreserveMeanRate: every registered model conserves the
// reference's mean rate — the invariant that keeps utilization comparable
// across models in a sweep.
func TestSourcesPreserveMeanRate(t *testing.T) {
	ref := testRef(t)
	for _, name := range source.Names() {
		s, err := source.Build(name, ref, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(s.MeanRate()-ref.MeanRate()) > 1e-12 {
			t.Errorf("%s: mean rate %g, want %g", name, s.MeanRate(), ref.MeanRate())
		}
		if s.Cutoff() != 10 || s.Hurst() != ref.Hurst() {
			t.Errorf("%s: reference coordinates (H=%g, Tc=%g) not preserved", name, s.Hurst(), s.Cutoff())
		}
	}
}

func TestParseParamsRejectsDuplicateKeys(t *testing.T) {
	_, err := source.ParseParams("horizon=5,horizon=7")
	if err == nil {
		t.Fatal("want error for duplicate parameter key")
	}
	if !strings.Contains(err.Error(), `"horizon"`) {
		t.Fatalf("error %q does not name the offending key", err)
	}
	// A single occurrence of each key still parses.
	p, err := source.ParseParams("horizon=5,components=3")
	if err != nil || p["horizon"] != 5 || p["components"] != 3 {
		t.Fatalf("distinct keys = %v, %v", p, err)
	}
}

func TestParseSpecsErrorNamesIndex(t *testing.T) {
	_, err := source.ParseSpecs("fluid,nosuch,mmfq", "")
	if err == nil {
		t.Fatal("want error for unknown model in list")
	}
	if !strings.Contains(err.Error(), "model 2") {
		t.Fatalf("error %q does not name the bad spec index", err)
	}
	if !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("error %q does not surface the bad model name", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range []source.Spec{
		{},
		{Name: "fluid"},
		{Name: "markov", Params: source.Params{"horizon": 5, "components": 3}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %v: %v", spec, err)
		}
		var got source.Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got.Key() != spec.Key() {
			t.Fatalf("round trip %v -> %s -> %v (keys %q != %q)", spec, b, got, got.Key(), spec.Key())
		}
	}
	// The zero spec marshals with the default name made explicit.
	b, _ := json.Marshal(source.Spec{})
	if !strings.Contains(string(b), `"name":"fluid"`) {
		t.Fatalf("zero spec marshals as %s; want explicit fluid name", b)
	}
}

func TestSpecJSONValidates(t *testing.T) {
	var s source.Spec
	if err := json.Unmarshal([]byte(`{"name":"nosuch"}`), &s); err == nil {
		t.Fatal("want error for unknown model name")
	}
	if err := json.Unmarshal([]byte(`{"name":"fluid","bogus":1}`), &s); err == nil {
		t.Fatal("want error for unknown field")
	}
	if err := json.Unmarshal([]byte(`{}`), &s); err != nil || s.Name != "fluid" {
		t.Fatalf("empty object = %+v, %v; want default fluid", s, err)
	}
}
