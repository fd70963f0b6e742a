package solver

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"lrd/internal/obs"
)

var warmTestCfg = Config{InitialBins: 64, MaxBins: 1024, MaxIterations: 10000}

// TestWarmSeedBracketValid is the core warm-start property: across random
// sources, a solve seeded from its smaller-buffer neighbor still produces a
// valid bracket — the warm bracket and the cold bracket for the same cell
// both contain the true loss, so they must intersect. The bound-order
// watchdog additionally verifies lower <= upper at every warm step.
func TestWarmSeedBracketValid(t *testing.T) {
	tried := 0
	for seed := int64(1); seed <= 30 && tried < 12; seed++ {
		q, ok := randomModel(seed)
		if !ok {
			continue
		}
		tried++
		small := q.Model()
		large := q.Model()
		large.Buffer *= 1.0 + 0.25*float64(seed%4+1) // Δ > 0 in [25%,100%]

		base, err := SolveModel(small, warmTestCfg)
		if err != nil {
			t.Fatalf("seed %d: neighbor solve: %v", seed, err)
		}
		ws := SeedFromResult(small, base)
		if ws == nil {
			t.Fatalf("seed %d: SeedFromResult returned nil for a solver result", seed)
		}

		cold, err := SolveModel(large, warmTestCfg)
		if err != nil {
			t.Fatalf("seed %d: cold solve: %v", seed, err)
		}
		warm, err := SolveModelSeeded(context.Background(), large, warmTestCfg, ws)
		if err != nil {
			t.Fatalf("seed %d: warm solve: %v", seed, err)
		}
		if !warm.Converged && !cold.Converged {
			continue // both degraded; brackets are still checked below
		}
		// Both brackets contain the true loss, so they must overlap (up to
		// the watchdog's own fp tolerance).
		maxLo := math.Max(cold.Lower, warm.Lower)
		minHi := math.Min(cold.Upper, warm.Upper)
		if maxLo > minHi*(1+1e-6)+1e-15 {
			t.Fatalf("seed %d: warm and cold brackets disjoint: cold [%g,%g], warm [%g,%g]",
				seed, cold.Lower, cold.Upper, warm.Lower, warm.Upper)
		}
	}
	if tried < 5 {
		t.Fatalf("only %d valid random models; generator drifted", tried)
	}
}

// TestWarmSeedSameBuffer: Δ = 0 re-seeding (same cell solved again from its
// own stationary vectors) is valid and converges almost immediately.
func TestWarmSeedSameBuffer(t *testing.T) {
	q, ok := randomModel(7)
	if !ok {
		t.Fatal("randomModel(7) invalid")
	}
	m := q.Model()
	cold, err := SolveModel(m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SolveModelSeeded(context.Background(), m, warmTestCfg, SeedFromResult(m, cold))
	if err != nil {
		t.Fatalf("re-seeded solve: %v", err)
	}
	if cold.Converged && !warm.Converged {
		t.Fatalf("re-seeded solve did not converge (degraded %q)", warm.Degraded)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("re-seeded solve took %d iterations, cold took %d — warm start made it worse",
			warm.Iterations, cold.Iterations)
	}
	maxLo := math.Max(cold.Lower, warm.Lower)
	minHi := math.Min(cold.Upper, warm.Upper)
	if maxLo > minHi*(1+1e-6)+1e-15 {
		t.Fatalf("brackets disjoint: cold [%g,%g], warm [%g,%g]",
			cold.Lower, cold.Upper, warm.Lower, warm.Upper)
	}
}

// TestWarmSeedRejection: incompatible seeds (wrong service rate, descending
// buffer, corrupt mass) fall back to a solve bit-identical to cold and count
// a warm rejection.
func TestWarmSeedRejection(t *testing.T) {
	q, ok := randomModel(11)
	if !ok {
		t.Fatal("randomModel(11) invalid")
	}
	m := q.Model()
	base, err := SolveModel(m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	good := SeedFromResult(m, base)

	bad := []struct {
		name   string
		mutate func(s Seed) Seed
	}{
		{"service rate mismatch", func(s Seed) Seed { s.ServiceRate *= 1.5; return s }},
		{"descending buffer", func(s Seed) Seed { s.Buffer = m.Buffer * 2; return s }},
		{"mass deficit", func(s Seed) Seed {
			lo := append([]float64(nil), s.Lower...)
			lo[0] += 0.5 // breaks unit mass
			s.Lower = lo
			return s
		}},
	}
	cold, err := SolveModel(m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range bad {
		s := tc.mutate(*good)
		reg := obs.NewRegistry()
		cfg := warmTestCfg
		cfg.Recorder = reg
		got, err := SolveModelSeeded(context.Background(), m, cfg, &s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reg.CounterValue(obs.MetricSolverWarmRejected) != 1 {
			t.Fatalf("%s: warm_rejected = %v, want 1", tc.name,
				reg.CounterValue(obs.MetricSolverWarmRejected))
		}
		if reg.CounterValue(obs.MetricSolverWarmSolves) != 0 {
			t.Fatalf("%s: warm_solves = %v, want 0", tc.name,
				reg.CounterValue(obs.MetricSolverWarmSolves))
		}
		sameBits(t, got, cold, tc.name)
	}

	// And the nil seed: a plain cold solve, no rejection counted.
	reg := obs.NewRegistry()
	cfg := warmTestCfg
	cfg.Recorder = reg
	got, err := SolveModelSeeded(context.Background(), m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue(obs.MetricSolverWarmRejected) != 0 {
		t.Fatalf("nil seed counted a rejection")
	}
	sameBits(t, got, cold, "nil seed")
}

// TestSeedFromResultNil: results without usable occupancy vectors (journal
// adoptions) yield no seed.
func TestSeedFromResultNil(t *testing.T) {
	q, ok := randomModel(13)
	if !ok {
		t.Fatal("randomModel(13) invalid")
	}
	m := q.Model()
	r, err := SolveModel(m, warmTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(r Result) Result
	}{
		{"no occupancy", func(r Result) Result { r.LowerOccupancy, r.UpperOccupancy = nil, nil; return r }},
		{"length mismatch", func(r Result) Result { r.LowerOccupancy = r.LowerOccupancy[:r.Bins]; return r }},
		{"zero step", func(r Result) Result { r.GridStep = 0; return r }},
	} {
		if s := SeedFromResult(m, tc.mutate(r)); s != nil {
			t.Fatalf("%s: expected nil seed", tc.name)
		}
	}
}

// warmChain solves models as one warm-start chain in ascending buffer
// order, seeding each solve from its predecessor's result, and returns the
// results in input order.
func warmChain(t *testing.T, models []Model, cfg Config) []Result {
	t.Helper()
	order := make([]int, len(models))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return models[order[a]].Buffer < models[order[b]].Buffer })
	out := make([]Result, len(models))
	var seed *Seed
	for _, i := range order {
		r, err := SolveModelSeeded(context.Background(), models[i], cfg, seed)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out[i] = r
		seed = SeedFromResult(models[i], r)
	}
	return out
}

// TestWarmSolveAllDeterministic: two warm chains over the same cells
// produce bitwise-identical results, and warm metrics record every seeded
// solve.
func TestWarmSolveAllDeterministic(t *testing.T) {
	q, ok := randomModel(17)
	if !ok {
		t.Fatal("randomModel(17) invalid")
	}
	var models []Model
	for _, scale := range []float64{1.5, 0.75, 1.0, 2.0, 1.25} { // unsorted on purpose
		m := q.Model()
		m.Buffer *= scale
		models = append(models, m)
	}
	run := func() []Result {
		reg := obs.NewRegistry()
		cfg := warmTestCfg
		cfg.Recorder = reg
		out := warmChain(t, models, cfg)
		if got := reg.CounterValue(obs.MetricSolverWarmSolves); got != float64(len(models)-1) {
			t.Fatalf("warm_solves = %v, want %d (all but the chain head)", got, len(models)-1)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		sameBits(t, a[i], b[i], "warm determinism")
	}
}

// TestWarmChainIterationProfile measures the speedup signal: total Lindley
// iterations (and wall time) for a 32-cell ascending-buffer column solved
// cold per cell vs warm-chained. Logged for inspection; asserts only that
// warm does strictly less total iteration work.
func TestWarmChainIterationProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profile run")
	}
	q, ok := randomModel(2)
	if !ok {
		t.Fatal("randomModel(2) invalid")
	}
	var models []Model
	for i := 0; i < 32; i++ {
		m := q.Model()
		m.Buffer *= 1.0 + 0.025*float64(i)
		models = append(models, m)
	}

	coldStart := time.Now()
	coldRes := make([]Result, len(models))
	for i, m := range models {
		r, err := SolveModel(m, warmTestCfg)
		if err != nil {
			t.Fatal(err)
		}
		coldRes[i] = r
	}
	coldDur := time.Since(coldStart)

	warmStart := time.Now()
	warmRes := warmChain(t, models, warmTestCfg)
	warmDur := time.Since(warmStart)

	coldIters, warmIters := 0, 0
	for i := range models {
		coldIters += coldRes[i].Iterations
		warmIters += warmRes[i].Iterations
		maxLo := math.Max(coldRes[i].Lower, warmRes[i].Lower)
		minHi := math.Min(coldRes[i].Upper, warmRes[i].Upper)
		if maxLo > minHi*(1+1e-6)+1e-15 {
			t.Fatalf("cell %d: brackets disjoint: cold [%g,%g], warm [%g,%g]",
				i, coldRes[i].Lower, coldRes[i].Upper, warmRes[i].Lower, warmRes[i].Upper)
		}
	}
	t.Logf("cold: %d iters in %v; warm: %d iters in %v (iter ratio %.2fx, time ratio %.2fx)",
		coldIters, coldDur, warmIters, warmDur,
		float64(coldIters)/float64(warmIters), float64(coldDur)/float64(warmDur))
	if warmIters >= coldIters {
		t.Fatalf("warm chain did %d total iterations, cold did %d — warm starts save nothing",
			warmIters, coldIters)
	}
}
