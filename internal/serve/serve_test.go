package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/obs"
)

// solveBody is a small request that converges in well under a second.
func solveBody(buffer float64) string {
	return fmt.Sprintf(`{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":1,"util":0.8,"buffer":%g}`, buffer)
}

func post(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveCachedBitIdentical: the second identical request is a cache hit
// whose body is byte-for-byte the fresh response.
func TestSolveCachedBitIdentical(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, body1 := post(t, ts, solveBody(0.1))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Lrd-Cache"); got != "miss" {
		t.Fatalf("first solve X-Lrd-Cache = %q, want miss", got)
	}
	var res api.SolveResponse
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Degraded != "" || !(res.Lower <= res.Loss && res.Loss <= res.Upper) {
		t.Fatalf("implausible solve result: %+v", res)
	}
	if !strings.HasPrefix(res.Key, "v1|") {
		t.Fatalf("cache key %q lacks the v1| namespace", res.Key)
	}

	resp2, body2 := post(t, ts, solveBody(0.1))
	if got := resp2.Header.Get("X-Lrd-Cache"); got != "hit" {
		t.Fatalf("second solve X-Lrd-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from fresh:\n%s\n%s", body1, body2)
	}
	if n := s.solves.Load(); n != 1 {
		t.Fatalf("solver ran %d times, want 1", n)
	}
	if hits := s.reg.CounterValue(obs.MetricServeCacheHits); hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}

	// A request describing the same queue through the alpha/theta
	// parameterization shares the cache entry: the key canonicalizes.
	alt := `{"marginal":"0:0.5,2:0.5","alpha":1.4,"epoch":0.05,"cutoff":1,"util":0.8,"buffer":0.1}`
	resp3, body3 := post(t, ts, alt)
	if got := resp3.Header.Get("X-Lrd-Cache"); got != "hit" {
		t.Fatalf("alpha-form request X-Lrd-Cache = %q, want hit (key not canonical)", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("alpha-form request returned different bytes")
	}
}

// TestSingleflightCoalesces: N identical concurrent requests run the solver
// once and receive bit-identical bodies.
func TestSingleflightCoalesces(t *testing.T) {
	s := New(Config{CacheSize: -1}) // cache off: coalescing must carry it alone
	release := make(chan struct{})
	keyc := make(chan string, 1)
	s.beforeSolve = func(key string) {
		select {
		case keyc <- key:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 4
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts, solveBody(0.1))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}

	key := <-keyc // the leader is admitted and holding
	waitFor(t, "followers to coalesce", func() bool {
		s.mu.Lock()
		f := s.flights[key]
		s.mu.Unlock()
		return f != nil && f.waiters.Load() == n-1
	})
	close(release)
	wg.Wait()

	if solves := s.solves.Load(); solves != 1 {
		t.Fatalf("solver ran %d times for %d identical requests, want 1", solves, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}
	if co := s.reg.CounterValue(obs.MetricServeCoalesced); co != n-1 {
		t.Fatalf("coalesced = %v, want %d", co, n-1)
	}
}

// TestOverloadShedsWithoutStarving: with one solve slot and one queue slot,
// a third distinct request is shed fast with 429 + Retry-After while the
// admitted and queued solves complete normally.
func TestOverloadShedsWithoutStarving(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxQueue: 1, CacheSize: -1})
	release := make(chan struct{})
	s.beforeSolve = func(string) { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	// A: admitted, holds the only slot at the beforeSolve gate.
	go func() {
		resp, body := post(t, ts, solveBody(0.1))
		results <- result{resp.StatusCode, body}
	}()
	waitFor(t, "first solve to be admitted", func() bool {
		return s.reg.CounterValue(obs.MetricServeAdmitted) == 1
	})
	// B: distinct request, waits in the queue.
	go func() {
		resp, body := post(t, ts, solveBody(0.11))
		results <- result{resp.StatusCode, body}
	}()
	waitFor(t, "second solve to queue", func() bool {
		return s.reg.CounterValue(obs.MetricServeQueued) == 1
	})

	// C: queue full — shed fast, not enqueued behind the running solves.
	resp, body := post(t, ts, solveBody(0.12))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload response = %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After")
	}
	if shed := s.reg.CounterValue(obs.MetricServeShed); shed != 1 {
		t.Fatalf("shed = %v, want 1", shed)
	}

	// The in-flight solves were not starved by the overload.
	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("in-flight solve finished with %d %s", r.status, r.body)
		}
	}
}

// TestWarmRestartFromJournal: a journal-backed cache survives a restart —
// the new server answers from cache with the exact bytes the old one
// served.
func TestWarmRestartFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	store, err := core.OpenJournalStore(path, core.JournalStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Journal: store})
	ts1 := httptest.NewServer(s1.Handler())
	resp, fresh := post(t, ts1, solveBody(0.1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, fresh)
	}
	ts1.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := core.OpenJournalStore(path, core.JournalStoreOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	s2 := New(Config{Journal: resumed})
	if warmed := s2.reg.CounterValue(obs.MetricServeCacheWarmed); warmed != 1 {
		t.Fatalf("cache warmed = %v, want 1", warmed)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, body2 := post(t, ts2, solveBody(0.1))
	if got := resp2.Header.Get("X-Lrd-Cache"); got != "hit" {
		t.Fatalf("post-restart X-Lrd-Cache = %q, want hit", got)
	}
	if !bytes.Equal(fresh, body2) {
		t.Fatalf("post-restart body differs:\n%s\n%s", fresh, body2)
	}
	if n := s2.solves.Load(); n != 0 {
		t.Fatalf("restarted server solved %d times, want 0", n)
	}
}

// TestDegradedResultsAreNotCached: a budget-degraded bracket is served but
// never cached — the next identical request re-solves.
func TestDegradedResultsAreNotCached(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":1,"util":0.8,"buffer":0.1,"solver":{"timeout":"1ns"}}`
	resp, data := post(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve: %d %s", resp.StatusCode, data)
	}
	var res api.SolveResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Degraded == "" {
		t.Skip("1ns budget did not degrade on this machine")
	}
	resp2, _ := post(t, ts, body)
	if got := resp2.Header.Get("X-Lrd-Cache"); got != "miss" {
		t.Fatalf("second degraded request X-Lrd-Cache = %q, want miss (degraded result was cached)", got)
	}
	if entries, _ := s.reg.GaugeValue(obs.MetricServeCacheEntries); entries != 0 {
		t.Fatalf("cache entries = %v, want 0", entries)
	}
}

// TestRequestValidation: malformed bodies and inconsistent parameter sets
// are 400s that name the problem.
func TestRequestValidation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, want string
	}{
		{"empty", `{}`, "marginal is required"},
		{"not json", `{`, "decoding request"},
		{"unknown field", `{"marginal":"0:1","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":0.1,"nope":1}`, "unknown field"},
		{"both hurst and alpha", `{"marginal":"0:0.5,2:0.5","hurst":0.8,"alpha":1.4,"epoch":0.05,"util":0.8,"buffer":0.1}`, "either hurst or alpha"},
		{"no theta", `{"marginal":"0:0.5,2:0.5","hurst":0.8,"util":0.8,"buffer":0.1}`, "one of theta or epoch"},
		{"no buffer", `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8}`, "buffer is required"},
		{"no service", `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"buffer":0.1}`, "one of util or service"},
		{"bad model", `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":0.1,"model":{"name":"nosuch"}}`, "unknown model"},
		{"bad duration", `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":0.1,"solver":{"timeout":"fast"}}`, "invalid duration"},
	}
	for _, tc := range cases {
		resp, data := post(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d %s, want 400", tc.name, resp.StatusCode, data)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, data)
			continue
		}
		if !strings.Contains(e["error"], tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e["error"], tc.want)
		}
	}
	if errs := s.reg.CounterValue(obs.Labeled(obs.MetricServeErrors, "kind", "bad_request")); errs != float64(len(cases)) {
		t.Fatalf("bad_request errors = %v, want %d", errs, len(cases))
	}
}

// TestModelRequests: a registered non-fluid model solves through the
// service and gets its own cache key.
func TestModelRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fluidBody := solveBody(0.1)
	mmfqBody := `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":1,"util":0.8,"buffer":0.1,"model":{"name":"mmfq"}}`
	_, fluidResp := post(t, ts, fluidBody)
	resp, mmfqResp := post(t, ts, mmfqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mmfq solve: %d %s", resp.StatusCode, mmfqResp)
	}
	if resp.Header.Get("X-Lrd-Cache") != "miss" {
		t.Fatal("mmfq request hit the fluid cache entry: keys do not separate models")
	}
	var f, q api.SolveResponse
	if err := json.Unmarshal(fluidResp, &f); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mmfqResp, &q); err != nil {
		t.Fatal(err)
	}
	if f.Key == q.Key {
		t.Fatal("fluid and mmfq requests share a cache key")
	}
	if !(q.Lower <= q.Loss && q.Loss <= q.Upper) {
		t.Fatalf("mmfq result %v outside its bounds [%v, %v]", q.Loss, q.Lower, q.Upper)
	}
}

// TestMetricsAndHealth: /metrics serves conformant Prometheus text by
// default and the JSON snapshot under ?format=json.
func TestMetricsAndHealth(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, solveBody(0.1))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	if err := obs.LintExposition(bytes.NewReader(prom)); err != nil {
		t.Fatalf("/metrics fails the exposition linter: %v\n%s", err, prom)
	}
	if !bytes.Contains(prom, []byte(obs.MetricServeRequests+" 1")) {
		t.Fatalf("%s missing from exposition:\n%s", obs.MetricServeRequests, prom)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, data)
	}
	if snap.Counters[obs.MetricServeRequests] != 1 {
		t.Fatalf("metrics counters = %v, want %s = 1", snap.Counters, obs.MetricServeRequests)
	}
	if snap.Counters[obs.MetricSolverSolves] != 1 {
		t.Fatalf("solver metrics not wired through the serve registry: %v", snap.Counters)
	}

	// Wrong method on the solve route is rejected by the router.
	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}
