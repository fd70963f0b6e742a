package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/traces"
)

// postAt is post for the non-solve endpoints.
func postAt(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
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

// fitTrace synthesizes a small FGN trace with a known Hurst parameter; the
// fixed seed keeps the fit deterministic across runs.
func fitTrace(t *testing.T) traces.Trace {
	t.Helper()
	tr, err := traces.Synthesize(traces.Config{
		Name:     "test",
		Hurst:    0.8,
		Bins:     4096,
		BinWidth: 0.04,
		Quantile: traces.LognormalQuantile(1, 0.5),
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFitEndToEnd: /v1/fit on a synthetic H=0.8 trace recovers a plausible
// Hurst estimate, and the derived solve request round-trips through
// /v1/solve — the full trace→prediction pipeline over the wire.
func TestFitEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := fitTrace(t)
	reqBody, _ := json.Marshal(api.FitRequest{Rates: tr.Rates, BinWidth: tr.BinWidth, Cutoff: 1})
	resp, body := postAt(t, ts, "/v1/fit", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fit api.FitResponse
	if err := json.Unmarshal(body, &fit); err != nil {
		t.Fatal(err)
	}
	if fit.Samples != len(tr.Rates) || fit.BinWidth != tr.BinWidth {
		t.Fatalf("echoed trace shape: %+v", fit)
	}
	if fit.Hurst < 0.6 || fit.Hurst > 0.95 {
		t.Fatalf("fitted H = %g for an H=0.8 trace", fit.Hurst)
	}
	if math.Abs(fit.Alpha-(3-2*fit.Hurst)) > 1e-12 {
		t.Fatalf("alpha %g inconsistent with H %g", fit.Alpha, fit.Hurst)
	}
	if fit.Theta <= 0 || fit.Marginal == "" || fit.Estimator != "median" {
		t.Fatalf("incomplete fit: %+v", fit)
	}
	if len(fit.Estimates) != 5 {
		t.Fatalf("estimates map has %d entries, want all 5 estimators", len(fit.Estimates))
	}

	// The response plugs straight into /v1/solve.
	solveReq, _ := json.Marshal(fit.SolveRequest(0.8, 0.1))
	resp, body = post(t, ts, string(solveReq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("derived solve: %d %s", resp.StatusCode, body)
	}
	var sol api.SolveResponse
	if err := json.Unmarshal(body, &sol); err != nil {
		t.Fatal(err)
	}
	if !(sol.Loss > 0 && sol.Loss < 1) {
		t.Fatalf("derived solve loss = %g", sol.Loss)
	}
}

// TestFitEstimationError: a constant-rate trace is syntactically valid but
// has no correlation structure to estimate — 422 with the estimation code,
// not a 400.
func TestFitEstimationError(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rates := make([]float64, 256)
	for i := range rates {
		rates[i] = 1
	}
	reqBody, _ := json.Marshal(api.FitRequest{Rates: rates, BinWidth: 0.01})
	resp, body := postAt(t, ts, "/v1/fit", string(reqBody))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("constant trace: %d %s", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeEstimation {
		t.Fatalf("error code = %q, want %q (%s)", e.Code, api.CodeEstimation, body)
	}
}

// TestFitBadRequests: malformed fit requests fail fast with 400 and the
// bad_request code.
func TestFitBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"empty rates":   `{"rates":[],"bin_width":0.01}`,
		"zero width":    `{"rates":[1,2,3],"bin_width":0}`,
		"negative rate": `{"rates":[1,-2,3],"bin_width":0.01}`,
		"unknown field": `{"rates":[1,2,3],"bin_width":0.01,"extra":true}`,
		"not json":      `]`,
	} {
		resp, data := postAt(t, ts, "/v1/fit", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %s", name, resp.StatusCode, data)
			continue
		}
		var e api.Error
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: undecodable error body %s", name, data)
			continue
		}
		if e.Code != api.CodeBadRequest {
			t.Errorf("%s: code %q, want %q", name, e.Code, api.CodeBadRequest)
		}
	}
}

// TestProvisionEndpoint: the inverse solve over the wire, with the bracket
// invariant verified through independent /v1/solve calls against the same
// server.
func TestProvisionEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const slo = 0.05
	resp, body := postAt(t, ts, "/v1/provision", fmt.Sprintf(
		`{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":1,"util":0.8,"slo":%g,"max":2}`, slo))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("provision: %d %s", resp.StatusCode, body)
	}
	var prov api.ProvisionResponse
	if err := json.Unmarshal(body, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.Target != core.TargetBuffer || prov.SLO != slo {
		t.Fatalf("provision response: %+v", prov)
	}
	if prov.Loss > slo || prov.Bracket <= 0 || prov.Bracket >= prov.Value {
		t.Fatalf("bracket shape: %+v", prov)
	}

	forward := func(buffer float64) api.SolveResponse {
		t.Helper()
		resp, body := post(t, ts, fmt.Sprintf(
			`{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":1,"util":0.8,"buffer":%g}`, buffer))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forward solve: %d %s", resp.StatusCode, body)
		}
		var sol api.SolveResponse
		if err := json.Unmarshal(body, &sol); err != nil {
			t.Fatal(err)
		}
		return sol
	}
	// Provision classified both ends on proven solver bounds, so a cold
	// forward solve must bracket a true loss at or below the SLO at Value and
	// above it at Bracket. The cold midpoints are not compared to the SLO
	// exactly — a 20%-gap midpoint can land either side of it even when the
	// verdict is proven.
	if sol := forward(prov.Value); sol.Lower > slo {
		t.Errorf("forward solve at provisioned buffer %g: lower bound %g > SLO", prov.Value, sol.Lower)
	}
	if sol := forward(prov.Bracket); sol.Upper <= slo {
		t.Errorf("forward solve at bracket %g: upper bound %g <= SLO (not a bracket)", prov.Bracket, sol.Upper)
	}
}

// TestProvisionInfeasible: an unreachable SLO returns 422 with the
// infeasible code and the evidence in the message.
func TestProvisionInfeasible(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postAt(t, ts, "/v1/provision",
		`{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":1,"util":0.95,"slo":1e-300,"max":0.002}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible provision: %d %s", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeInfeasible {
		t.Fatalf("error code = %q, want %q (%s)", e.Code, api.CodeInfeasible, body)
	}
}

// TestProvisionBadRequests: provision-specific validation errors are 400s.
func TestProvisionBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"missing slo":    `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8}`,
		"unknown target": `{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"util":0.8,"slo":0.05,"target":"latency"}`,
		"bad marginal":   `{"marginal":"nope","hurst":0.8,"epoch":0.05,"util":0.8,"slo":0.05}`,
		"unknown field":  `{"marginal":"0:0.5,2:0.5","slo":0.05,"bogus":1}`,
	} {
		resp, data := postAt(t, ts, "/v1/provision", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %s", name, resp.StatusCode, data)
		}
	}
}
