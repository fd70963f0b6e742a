package serve

import (
	"math"
	"testing"

	"lrd/internal/api"
	"lrd/internal/dist"
	"lrd/internal/solver"
)

// FuzzCanonicalCacheKey drives the solve-cache identity through arbitrary
// float tuples: build must never panic (only reject), the key must be
// deterministic, the hurst and alpha parameterizations of the same queue
// must share one key (that is the point of canonicalization), and a request
// with a different buffer must never collide.
func FuzzCanonicalCacheKey(f *testing.F) {
	f.Add(0.8, 0.05, 1.0, 0.8, 0.5)
	f.Add(0.7, 0.1, 0.0, 0.5, 0.1) // cutoff 0 = infinite
	f.Add(0.9, 1.0, 10.0, 0.95, 2.0)
	f.Add(0.51, 1e-9, 1e9, 1e-9, 1e-12)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), -1.0, 0.0)

	base := solver.Config{}
	f.Fuzz(func(t *testing.T, hurst, epoch, cutoff, util, buffer float64) {
		r1 := &api.SolveRequest{
			Marginal: "0:0.5,2:0.5",
			Hurst:    hurst, Epoch: epoch, Cutoff: cutoff,
			Util: util, Buffer: buffer,
		}
		j1, err := buildSolve(r1, base) // must not panic on any input
		if err != nil {
			return // rejected: fine, nothing more to check
		}
		j1b, err := buildSolve(r1, base)
		if err != nil || j1b.key != j1.key {
			t.Fatalf("key not deterministic: %q vs %q (err %v)", j1.key, j1b.key, err)
		}

		// The resolved-alpha parameterization of the same queue must share
		// the key byte for byte.
		r2 := *r1
		r2.Hurst, r2.Alpha = 0, dist.AlphaFromHurst(hurst)
		j2, err := buildSolve(&r2, base)
		if err != nil {
			t.Fatalf("alpha form of an accepted hurst form rejected: %v", err)
		}
		if j2.key != j1.key {
			t.Fatalf("hurst/alpha parameterizations split the cache:\n %q\n %q", j1.key, j2.key)
		}

		// A genuinely different buffer must not collide.
		r3 := *r1
		r3.Buffer = buffer * 2
		if r3.Buffer != buffer && !math.IsInf(r3.Buffer, 0) {
			if j3, err := buildSolve(&r3, base); err == nil && j3.key == j1.key {
				t.Fatalf("buffers %v and %v collide on key %q", buffer, r3.Buffer, j1.key)
			}
		}
	})
}
