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
)

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, api.SweepResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sr api.SweepResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusMultiStatus {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decoding sweep response: %v\n%s", err, data)
		}
	} else {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	return resp, sr
}

// TestSweepEndpointGrid: one batch request computes a grid in row-major
// order, and every cell's body is bit-identical to the corresponding
// /v1/solve response.
func TestSweepEndpointGrid(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sweep := `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":1,` +
		`"buffers":[0.05,0.1],"cutoffs":[1,2]}`
	_, sr := postSweep(t, ts, sweep)
	if len(sr.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(sr.Cells))
	}
	wantOrder := [][2]float64{{0.05, 1}, {0.05, 2}, {0.1, 1}, {0.1, 2}}
	for i, cell := range sr.Cells {
		if cell.Buffer != wantOrder[i][0] || cell.Cutoff != wantOrder[i][1] {
			t.Fatalf("cell %d = (%g, %g), want %v (row-major order)", i, cell.Buffer, cell.Cutoff, wantOrder[i])
		}
		if cell.Status != http.StatusOK {
			t.Fatalf("cell %d status %d: %s", i, cell.Status, cell.Result)
		}
		body := fmt.Sprintf(`{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":%g,"cutoff":%g}`,
			cell.Buffer, cell.Cutoff)
		_, solo := post(t, ts, body)
		if !bytes.Equal([]byte(cell.Result), solo) {
			t.Fatalf("cell %d differs from /v1/solve:\n%s\n%s", i, cell.Result, solo)
		}
	}
}

// TestSweepRejectsOversizedGrid: the cell bound is enforced before any
// solving happens.
func TestSweepRejectsOversizedGrid(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buffers := make([]string, 100)
	cutoffs := make([]string, 100)
	for i := range buffers {
		buffers[i] = fmt.Sprintf("%d", i+1)
		cutoffs[i] = fmt.Sprintf("%d", i+1)
	}
	body := `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":1,` +
		`"buffers":[` + strings.Join(buffers, ",") + `],"cutoffs":[` + strings.Join(cutoffs, ",") + `]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if n := s.solves.Load(); n != 0 {
		t.Fatalf("solver ran %d times for a rejected grid", n)
	}
}

// TestSweepFleetSplitsAcrossReplicas: two server replicas share one lease
// journal. The same sweep posted to both concurrently is computed exactly
// once per cell fleet-wide — each replica either solves a cell or adopts
// the other's result — and both replicas return bit-identical bodies per
// cell.
func TestSweepFleetSplitsAcrossReplicas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	openStore := func(worker string) *core.LeaseStore {
		st, err := core.OpenLeaseStore(path, core.LeaseStoreOptions{
			Worker: worker, TTL: 5 * time.Second, Poll: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	s1 := New(Config{Journal: openStore("replica-1")})
	s2 := New(Config{Journal: openStore("replica-2")})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	sweep := `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"buffer":1,` +
		`"buffers":[0.02,0.05,0.1],"cutoffs":[1,2]}`
	const cells = 6

	var wg sync.WaitGroup
	responses := make([]api.SweepResponse, 2)
	for i, ts := range []*httptest.Server{ts1, ts2} {
		wg.Add(1)
		go func(i int, ts *httptest.Server) {
			defer wg.Done()
			_, responses[i] = postSweep(t, ts, sweep)
		}(i, ts)
	}
	wg.Wait()

	total := s1.solves.Load() + s2.solves.Load()
	if total != cells {
		t.Fatalf("fleet ran %d solves for %d cells (want exactly one each)", total, cells)
	}
	adopted := 0
	for i, cell := range responses[0].Cells {
		if cell.Status != http.StatusOK || responses[1].Cells[i].Status != http.StatusOK {
			t.Fatalf("cell %d statuses: %d / %d", i, cell.Status, responses[1].Cells[i].Status)
		}
		if !bytes.Equal([]byte(cell.Result), []byte(responses[1].Cells[i].Result)) {
			t.Fatalf("cell %d differs between replicas:\n%s\n%s", i, cell.Result, responses[1].Cells[i].Result)
		}
		for _, r := range responses {
			if r.Cells[i].Source == "adopted" {
				adopted++
			}
		}
	}
	// With both replicas solving some cells, at least one cell on at least
	// one replica must have been adopted from its peer — unless one replica
	// happened to win every lease, in which case the other saw all cells as
	// adopted. Either way adoption happened somewhere.
	if total == cells && adopted == 0 && s1.solves.Load() > 0 && s2.solves.Load() > 0 {
		t.Fatal("both replicas solved cells yet neither adopted any")
	}

	// A third replica starting later warm-loads every completed cell from
	// the shared journal into its cache.
	s3 := New(Config{Journal: openStore("replica-3")})
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	_, sr3 := postSweep(t, ts3, sweep)
	if got := s3.solves.Load(); got != 0 {
		t.Fatalf("late replica re-ran %d solves despite the shared journal", got)
	}
	for i, cell := range sr3.Cells {
		if !bytes.Equal([]byte(cell.Result), []byte(responses[0].Cells[i].Result)) {
			t.Fatalf("late replica cell %d differs:\n%s\n%s", i, cell.Result, responses[0].Cells[i].Result)
		}
	}
}
