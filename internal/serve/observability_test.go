package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lrd/internal/fleetstatus"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/solver"
)

// fleetJournal authors a synthetic two-worker journal for status tests.
func fleetJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.journal")
	w, err := journal.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Hour).UnixNano()
	for _, rec := range []journal.Record{
		{Key: "a", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: deadline},
		{Key: "a", Status: journal.StatusOK, Worker: "w1", Epoch: 1, Value: []byte(`{}`)},
		{Key: "b", Status: journal.StatusClaimed, Worker: "w2", Epoch: 1, Deadline: deadline},
	} {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStatusEndpoint: /v1/status serves the journal-derived fleet view.
func TestStatusEndpoint(t *testing.T) {
	path := fleetJournal(t)
	s := New(Config{Status: fleetstatus.New(path, fleetstatus.Options{ExpectedCells: 4})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var st fleetstatus.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status is not JSON: %v\n%s", err, data)
	}
	if st.Journal != path || st.CellsDone != 1 || st.CellsInFlight != 1 || st.CellsExpected != 4 {
		t.Fatalf("status = %+v", st)
	}
	if st.CompletionPct != 25 {
		t.Fatalf("completion = %g, want 25", st.CompletionPct)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %+v", st.Workers)
	}

	// Status on a server without a journal is the degenerate empty view,
	// not an error.
	s2 := New(Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("journal-less status = %d: %s", resp2.StatusCode, data2)
	}
}

// spanCollector is a concurrency-safe SpanSink for tests.
type spanCollector struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (c *spanCollector) sink(s obs.Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, s)
}

func (c *spanCollector) all() []obs.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Span(nil), c.spans...)
}

// TestTraceEndToEnd: one trace id minted per request is echoed in the
// X-Lrd-Trace response header, stamped on every span the request emitted
// (request → solve), carried by every solver TracePoint, and attached to
// the request's slog line.
func TestTraceEndToEnd(t *testing.T) {
	var spans spanCollector
	var tpMu sync.Mutex
	var points []solver.TracePoint
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logW := writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	})

	cfg := Config{
		SpanSink: spans.sink,
		Logger:   obs.NewLogger(logW, "serve-test", obs.TraceContext{}),
	}
	cfg.Solver.Trace = func(p solver.TracePoint) {
		tpMu.Lock()
		defer tpMu.Unlock()
		points = append(points, p)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts, solveBody(0.1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Lrd-Trace")
	if traceID == "" {
		t.Fatal("no X-Lrd-Trace response header")
	}

	all := spans.all()
	if len(all) == 0 {
		t.Fatal("no spans emitted")
	}
	names := map[string]bool{}
	for _, sp := range all {
		names[sp.Name] = true
		if sp.Trace != traceID {
			t.Fatalf("span %q trace = %s, want %s", sp.Name, sp.Trace, traceID)
		}
	}
	for _, want := range []string{"serve.solve", "solver.solve"} {
		if !names[want] {
			t.Fatalf("span %q missing; got %v", want, names)
		}
	}

	tpMu.Lock()
	defer tpMu.Unlock()
	if len(points) == 0 {
		t.Fatal("no solver trace points emitted")
	}
	for _, p := range points {
		if p.Trace != traceID {
			t.Fatalf("trace point carries trace %q, want %q", p.Trace, traceID)
		}
	}

	logMu.Lock()
	logText := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logText, "trace="+traceID) {
		t.Fatalf("slog output lacks trace id %s:\n%s", traceID, logText)
	}

	// An incoming X-Lrd-Trace header is adopted, not replaced (a cache-hit
	// request: no new solve spans, but the request span carries our id).
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(solveBody(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	const inbound = "feedfacedeadbeef"
	req.Header.Set("X-Lrd-Trace", inbound)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Lrd-Trace"); got != inbound {
		t.Fatalf("inbound trace id not adopted: got %q, want %q", got, inbound)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
