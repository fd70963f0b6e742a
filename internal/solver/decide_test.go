package solver

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// decideCase is one start a decided solve is checked from: a solver-golden
// model and configuration, solved cold or seeded.
type decideCase struct {
	name string
	m    Model
	cfg  Config
	seed *Seed
}

// decideCases lists every solver-golden case solved cold, plus the larger
// buffer cells seeded from the half-size cell's result, the ascending chain
// a provisioning search walks.
func decideCases(t *testing.T) []decideCase {
	t.Helper()
	golden := goldenCases(t)
	var out []decideCase
	var half goldenCase
	for _, c := range golden {
		out = append(out, decideCase{c.name, c.m, c.cfg, nil})
		if c.name == "buffer/x0.5" {
			half = c
		}
	}
	base, err := SolveModel(half.m, half.cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := SeedFromResult(half.m, base)
	for _, c := range golden {
		if strings.HasPrefix(c.name, "buffer/") && c.m.Buffer > half.m.Buffer {
			out = append(out, decideCase{c.name + "/seeded", c.m, c.cfg, seed})
		}
	}
	return out
}

// thresholdsAround returns the losses a case is decided against: fixed
// ones across the practical SLO range, and multiples of a result's bounds
// on both sides of its bracket.
func thresholdsAround(r Result) []float64 {
	ts := []float64{1e-6, 1e-4, 1e-2, 0.1}
	for _, v := range []float64{r.Lower / 2, r.Lower * 0.99, r.Upper * 1.01, r.Upper * 2} {
		if v > 0 {
			ts = append(ts, v)
		}
	}
	return ts
}

// decides reports whether a bracket lies on one side of a threshold.
func decides(r Result, threshold float64) bool {
	return r.Upper <= threshold || r.Lower > threshold
}

// prefixLine renders the state a decision stop must leave untouched: the
// bits of both bounds and the grid step, the resolution, the iteration
// count, and both occupancy vectors.
func prefixLine(r Result) string {
	return fmt.Sprintf("lower %016x upper %016x step %016x bins %d iterations %d occupancy %016x",
		math.Float64bits(r.Lower), math.Float64bits(r.Upper), math.Float64bits(r.GridStep),
		r.Bins, r.Iterations, occupancyHash(r))
}

// cutAt returns the case's plain solve cut off after k iterations: an
// iteration budget of k, or the unstepped start at k = 0.
func cutAt(t *testing.T, c decideCase, k int) Result {
	t.Helper()
	if k == 0 {
		it, err := NewModelIteratorSeeded(c.m, c.cfg, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		defer it.release()
		lo, hi := it.LossBounds()
		return it.result((lo+hi)/2, lo, hi, true)
	}
	cut := c.cfg
	cut.MaxIterations = k
	r, err := SolveModelSeeded(context.Background(), c.m, cut, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDecidePrefix: a decided solve that stops after k iterations is, bit
// for bit, the same solve cut off by an iteration budget of k. A stop on a
// decided bracket reports Converged, no degradation, and the midpoint loss.
func TestDecidePrefix(t *testing.T) {
	ctx := context.Background()
	for _, c := range decideCases(t) {
		plain, err := SolveModelSeeded(ctx, c.m, c.cfg, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, th := range thresholdsAround(plain) {
			got, err := Decide(ctx, c.m, c.cfg, c.seed, th)
			if err != nil {
				t.Fatalf("%s at %g: %v", c.name, th, err)
			}
			if g, w := prefixLine(got), prefixLine(cutAt(t, c, got.Iterations)); g != w {
				t.Errorf("%s at %g: decided solve is not a prefix:\n got  %s\n want %s", c.name, th, g, w)
			}
			if !decides(got, th) {
				continue
			}
			if !got.Converged || got.Degraded != "" {
				t.Errorf("%s at %g: decided result converged=%t degraded=%q", c.name, th, got.Converged, got.Degraded)
			}
			if mid := (got.Lower + got.Upper) / 2; got.Loss != mid && !(got.Loss == 0 && got.Upper < lossFloor) {
				t.Errorf("%s at %g: decided loss %g, want midpoint %g", c.name, th, got.Loss, mid)
			}
		}
	}
}

// TestDecideSoundVerdicts: against thresholds outside a tight cold
// reference bracket, a decided solve — cold or seeded, at the case's own
// gap target — never proves the wrong side (the bounds bracket the true
// loss at every iteration), decides every threshold a factor 2 outside the
// reference, and keeps a bracket overlapping the reference.
func TestDecideSoundVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("tight reference solves run to the resolution cap; skipped under -short")
	}
	ctx := context.Background()
	checked, decided := 0, 0
	for _, c := range decideCases(t) {
		tight := c.cfg
		tight.RelGap = 1e-3
		ref, err := SolveModel(c.m, tight)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !(ref.Lower > 0) {
			continue // a zero-loss cell has no threshold below its bracket
		}
		for _, f := range []float64{0.5, 0.9, 1.1, 2} {
			th := ref.Lower * f
			if f > 1 {
				th = ref.Upper * f
			}
			got, err := Decide(ctx, c.m, c.cfg, c.seed, th)
			if err != nil {
				t.Fatalf("%s at %g: %v", c.name, th, err)
			}
			checked++
			if lo, hi := math.Max(got.Lower, ref.Lower), math.Min(got.Upper, ref.Upper); lo > hi*(1+1e-9) {
				t.Errorf("%s at %g: decided [%g, %g] misses reference [%g, %g]",
					c.name, th, got.Lower, got.Upper, ref.Lower, ref.Upper)
			}
			feasible := th > ref.Upper
			switch {
			case got.Upper <= th:
				decided++
				if !feasible {
					t.Errorf("%s at %g: proved loss <= threshold, but the reference lower bound is %g", c.name, th, ref.Lower)
				}
			case got.Lower > th:
				decided++
				if feasible {
					t.Errorf("%s at %g: proved loss > threshold, but the reference upper bound is %g", c.name, th, ref.Upper)
				}
			case f == 0.5 || f == 2:
				t.Errorf("%s at %g: undecided at [%g, %g], a factor 2 outside the reference [%g, %g]",
					c.name, th, got.Lower, got.Upper, ref.Lower, ref.Upper)
			}
		}
	}
	if checked == 0 || decided < checked/2 {
		t.Fatalf("%d of %d thresholds decided", decided, checked)
	}
	t.Logf("%d of %d thresholds decided", decided, checked)
}

// TestDecideNoExtraWork: when the plain solve's final bracket already
// decides a threshold, the decided solve stops no later than the plain
// solve does, and at the first iteration that decides it: one iteration
// earlier the bracket still straddled the threshold.
func TestDecideNoExtraWork(t *testing.T) {
	ctx := context.Background()
	for _, c := range decideCases(t) {
		plain, err := SolveModelSeeded(ctx, c.m, c.cfg, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, th := range thresholdsAround(plain) {
			if !decides(plain, th) {
				continue
			}
			got, err := Decide(ctx, c.m, c.cfg, c.seed, th)
			if err != nil {
				t.Fatalf("%s at %g: %v", c.name, th, err)
			}
			if got.Iterations > plain.Iterations {
				t.Errorf("%s at %g: decided solve took %d iterations, plain %d",
					c.name, th, got.Iterations, plain.Iterations)
			}
			if k := got.Iterations; k > 0 {
				if prev := cutAt(t, c, k-1); decides(prev, th) {
					t.Errorf("%s at %g: stopped after %d iterations, but [%g, %g] already decided it after %d",
						c.name, th, k, prev.Lower, prev.Upper, k-1)
				}
			}
		}
	}
}
