package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lrd/internal/chaos"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/serve"
)

// startReplica spins an in-process lrdserve handler and returns its base URL
// plus the raw host:port (the chaos proxy dials the latter).
func startReplica(t *testing.T) (url, hostport string) {
	t.Helper()
	s := serve.New(serve.Config{})
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, ts.Listener.Addr().String()
}

// seedDamagedJournal creates the fleet's shared journal holding one record
// whose CRC no longer matches its content — the bit-rot every worker must
// quarantine rather than trust on open.
func seedDamagedJournal(t *testing.T, path string) {
	t.Helper()
	w, err := journal.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(journal.Record{Key: "chaos-seed", Status: journal.StatusOK, Value: []byte(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(raw, []byte(`{\"x\":1}`), []byte(`{\"x\":2}`), 1)
	if bytes.Equal(flipped, raw) {
		// The value is embedded unescaped when Record.Value is RawMessage.
		flipped = bytes.Replace(raw, []byte(`{"x":1}`), []byte(`{"x":2}`), 1)
	}
	if bytes.Equal(flipped, raw) {
		t.Fatalf("could not flip the seeded record's value in %s", raw)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
}

// counter reads one counter out of a -metrics JSON snapshot.
func counter(t *testing.T, path, name string) float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters[name]
}

// TestFleetRunMatchesLocal: a -fleet sweep writes the TSV a local run of
// the same model writes, byte for byte. The replica realizes and solves
// each cell; the client places the reply's bracket at the cell's reference
// coordinates without realizing the model itself.
func TestFleetRunMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps against an in-process replica")
	}
	url, _ := startReplica(t)
	dir := t.TempDir()
	for _, model := range []string{"mmfq", "markov"} {
		tsv := func(extra ...string) []byte {
			t.Helper()
			path := filepath.Join(dir, fmt.Sprintf("%s.%d.tsv", model, len(extra)))
			args := append([]string{"-exp", "fig4", "-quick", "-seed", "3", "-model", model, "-out", path}, extra...)
			if code, _, stderr := runCapture(args...); code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		local, remote := tsv(), tsv("-fleet", url)
		if !bytes.Equal(local, remote) {
			t.Errorf("-model %s: fleet TSV differs from the local run:\n--- fleet ---\n%s\n--- local ---\n%s", model, remote, local)
		}
	}
}

// TestChaosFleetByteIdentity is the resilience end-to-end: a 4-worker
// distributed sweep whose fleet list leads with a chaos proxy (every
// connection through it is reset or truncated, all of them delayed) must
// still complete, produce TSVs byte-identical to a clean remote run against
// the healthy replica alone, open at least one circuit breaker along the
// way, and quarantine the damaged record pre-seeded in the shared journal.
func TestChaosFleetByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps through a fault proxy")
	}
	healthyURL, hostport := startReplica(t)

	// Clean reference: a remote sweep against the healthy replica only. The
	// chaotic run below must reproduce these bytes exactly.
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.tsv")
	code, _, stderr := runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-fleet", healthyURL, "-out", cleanPath)
	if code != 0 {
		t.Fatalf("clean remote run: exit %d, stderr: %s", code, stderr)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}

	// The proxy makes every connection through it fail: odd connections are
	// truncated mid-response, even ones reset outright, and all are delayed.
	proxy, err := chaos.New(chaos.Config{
		Upstream:      hostport,
		Latency:       2 * time.Millisecond,
		ResetEvery:    2,
		TruncateEvery: 1,
		TruncateBytes: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	jpath := filepath.Join(dir, "shared.journal")
	seedDamagedJournal(t, jpath)

	const workers = 4
	var wg sync.WaitGroup
	codes := make([]int, workers)
	stderrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, stderrs[i] = runCapture(
				"-exp", "fig4", "-quick", "-seed", "3",
				"-journal", jpath, "-worker-id", fmt.Sprintf("w%d", i), "-workers", "2",
				"-fleet", proxy.URL()+","+healthyURL,
				"-attempts", "4", "-breaker-fails", "2", "-breaker-cooldown", "10s",
				"-metrics", filepath.Join(dir, fmt.Sprintf("metrics.w%d.json", i)),
				"-out", filepath.Join(dir, fmt.Sprintf("fleet.w%d.tsv", i)),
			)
		}(i)
	}
	wg.Wait()

	var opens, quarantined float64
	for i := 0; i < workers; i++ {
		if codes[i] != 0 {
			t.Fatalf("worker %d: exit %d, stderr: %s", i, codes[i], stderrs[i])
		}
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("fleet.w%d.tsv", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, clean) {
			t.Errorf("worker %d TSV differs from the clean run:\n--- chaotic ---\n%s\n--- clean ---\n%s", i, got, clean)
		}
		mpath := filepath.Join(dir, fmt.Sprintf("metrics.w%d.json", i))
		opens += counter(t, mpath, obs.MetricResilientBreakerOpens)
		quarantined += counter(t, mpath, obs.MetricCoreJournalQuarantined)
	}
	// The proxy fails every connection, so with -breaker-fails 2 some worker
	// must have tripped its breaker; and the damaged seed record must have
	// been preserved in the sidecar by whichever worker opened first.
	if opens < 1 {
		t.Errorf("summed %s = %v, want >= 1", obs.MetricResilientBreakerOpens, opens)
	}
	if quarantined < 1 {
		t.Errorf("summed %s = %v, want >= 1", obs.MetricCoreJournalQuarantined, quarantined)
	}
	if _, err := os.Stat(jpath + journal.QuarantineSuffix); err != nil {
		t.Errorf("no quarantine sidecar: %v", err)
	}

	// The chaotic fleet's shared journal is now full of per-worker claim and
	// completion records; -compact folds it to one record per key and a
	// -resume replay recomputes nothing.
	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCapture("-compact", "-journal", jpath)
	if code != 0 {
		t.Fatalf("-compact: exit %d, stderr: %s", code, stderr)
	}
	after, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes (%s)", before.Size(), after.Size(), stdout)
	}
	resumedPath := filepath.Join(dir, "resumed.tsv")
	resumedMetrics := filepath.Join(dir, "metrics.resumed.json")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-journal", jpath, "-resume", "-fleet", healthyURL,
		"-metrics", resumedMetrics, "-out", resumedPath)
	if code != 0 {
		t.Fatalf("resumed run after compaction: exit %d, stderr: %s", code, stderr)
	}
	// Zero remote requests = zero cells recomputed: the compacted journal
	// replayed every cell.
	if n := counter(t, resumedMetrics, obs.MetricResilientRequests); n != 0 {
		t.Errorf("resumed run issued %v remote solves, want 0 (full replay)", n)
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, clean) {
		t.Errorf("post-compaction resume differs from the clean run:\n--- resumed ---\n%s", resumed)
	}
}
