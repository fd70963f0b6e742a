package serve

import (
	"encoding/json"
	"testing"
	"time"

	"lrd/internal/api"
	"lrd/internal/solver"
)

// TestCacheKeyGolden pins the canonical cache key byte for byte: journals
// and fleet lease stores written by earlier servers are keyed by exactly
// this string, so a drift here silently orphans every warm-start journal.
// Only its cfg component may change, and only when the solver revision
// changes results (solver.ConfigHash): entries of the old revision must
// then be recomputed, not replayed.
func TestCacheKeyGolden(t *testing.T) {
	req := &api.SolveRequest{Marginal: "0:0.5,2:0.5", Hurst: 0.8, Epoch: 0.05, Util: 0.8, Buffer: 0.5}
	job, err := buildSolve(req, solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "v1|mg=0:0.5,2:0.5|a=1.4|th=0.019999999999999997|tc=inf|c=1.25|B=0.625|model=fluid|cfg=405394f9e67bceff"
	if job.key != want {
		t.Fatalf("cache key changed:\n got  %s\n want %s", job.key, want)
	}
}

// TestConfigHashGolden pins solver.ConfigHash with every settable slot of
// its format nonzero, beside the zero config the cache key above pins:
// journal keys and cached entries written under such a config must keep
// replaying.
func TestConfigHashGolden(t *testing.T) {
	cfg := solver.Config{InitialBins: 64, MaxBins: 1024, RelGap: 0.05, MaxIterations: 20000, MaxDuration: 2 * time.Second}
	if got, want := solver.ConfigHash(cfg), "2e5ec9b19b7354a3"; got != want {
		t.Fatalf("ConfigHash(%+v) = %s, want %s", cfg, got, want)
	}
}

// TestErrorBodyLegacyBytes pins the /v1/solve and /v1/sweep error bodies to
// the pre-envelope encoding: a code-less api.Error must produce exactly the
// bytes the old map[string]string marshal produced.
func TestErrorBodyLegacyBytes(t *testing.T) {
	legacy, _ := json.Marshal(map[string]string{"error": "overloaded: solve queue is full"})
	got := errBody("", "overloaded: solve queue is full")
	if string(got) != string(legacy) {
		t.Fatalf("legacy error bytes changed:\n got  %s\n want %s", got, legacy)
	}
	if coded := errBody("infeasible", "x"); string(coded) != `{"error":"x","code":"infeasible"}` {
		t.Fatalf("coded error bytes: %s", coded)
	}
}
