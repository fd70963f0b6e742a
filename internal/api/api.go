// Package api is the single definition of the lrdserve /v1 wire contract:
// every request and response body that crosses the HTTP boundary, plus the
// shared error envelope and the typed fleet client built on
// internal/resilient.
//
// Before this package existed the contract lived in three places — the
// serve handlers owned the structs, lrdsweep's remote solver imported them
// through the server package, and lrdcall shipped raw bytes with no types
// at all — and nothing stopped them drifting. Now the server decodes,
// the clients encode, and the golden tests round-trip exactly these types,
// so a wire change is a change to this package or it is a bug.
//
// Compatibility contract: the JSON rendered by these types is
// byte-identical to the pre-package serve encoding (field order, tags,
// omitempty sets, the Duration string form, and the {"error": "..."}
// envelope), so cached response bodies and canonical cache keys written by
// older servers replay unchanged. The golden tests in api_test.go enforce
// this byte-for-byte.
package api

import (
	"encoding/json"
	"fmt"
	"time"

	"lrd/internal/source"
)

// Duration is a time.Duration that unmarshals from either a Go duration
// string ("2s", "500ms") or a number of seconds, so curl-friendly request
// bodies can write whichever is natural.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("invalid duration %q: %w", s, perr)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(data, &secs); err != nil {
		return fmt.Errorf("duration must be a string like \"2s\" or a number of seconds")
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// SolverParams is the per-request subset of the solver configuration a
// client may override. Everything else comes from the server's -relgap and
// -maxbins style defaults; resource-protection knobs (iteration caps, the
// numeric watchdog) stay server-side.
type SolverParams struct {
	// RelGap is the bound convergence target (paper: 0.2). A provision's
	// probes stop once their bounds decide the SLO and give up at a 0.1%
	// gap, so there relgap only tightens that floor.
	RelGap float64 `json:"relgap,omitempty"`
	// MaxBins caps the resolution ladder (default 32768).
	MaxBins int `json:"maxbins,omitempty"`
	// Timeout is the per-request wall-clock solve budget. It is clamped to
	// the server's request timeout and mapped onto the solver's MaxDuration
	// budget machinery, so an expired budget degrades gracefully to the
	// best-so-far bracket instead of failing.
	Timeout Duration `json:"timeout,omitempty"`
}

// SolveRequest is the POST /v1/solve body: the same queue description the
// lrdloss command takes, as JSON. The marginal uses the CLI's inline
// rate:prob syntax; the correlation structure is given by -hurst-or-alpha,
// -theta-or-epoch, and the cutoff lag; the queue by -util-or-service and
// the normalized buffer; and the optional model is a registered traffic
// model spec ({"name": ..., "params": {...}}).
type SolveRequest struct {
	// Marginal is the rate marginal as rate:prob pairs, e.g. "0:0.5,2:0.5".
	Marginal string `json:"marginal"`
	// Hurst in (0.5, 1) sets the tail index alpha = 3−2H; Alpha in (1, 2) is
	// the alternative. Exactly one must be set.
	Hurst float64 `json:"hurst,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	// Theta is the Pareto scale in seconds; Epoch is the mean epoch duration
	// that calibrates it. Exactly one must be set.
	Theta float64 `json:"theta,omitempty"`
	Epoch float64 `json:"epoch,omitempty"`
	// Cutoff is the correlation cutoff lag Tc in seconds; 0 or absent means
	// infinite (the pure heavy-tailed source).
	Cutoff float64 `json:"cutoff,omitempty"`
	// Util in (0, 1) sets the service rate from the marginal mean; Service
	// gives the rate directly. Exactly one must be set.
	Util    float64 `json:"util,omitempty"`
	Service float64 `json:"service,omitempty"`
	// Buffer is the normalized buffer size B/c in seconds. Required.
	Buffer float64 `json:"buffer"`
	// Model realizes the reference source as a registered traffic model
	// before solving (fluid, onoff, markov, mmfq, ams). Absent means fluid,
	// the paper's model.
	Model source.Spec `json:"model,omitempty"`
	// Solver overrides the server's default solver knobs for this request.
	Solver SolverParams `json:"solver,omitempty"`
}

// SolveResponse is the POST /v1/solve reply: the loss-rate bracket and
// solve diagnostics, plus the canonical cache key the result is stored
// under. Cache disposition travels in the X-Lrd-Cache header (hit, miss, or
// coalesced), never in the body — cached, coalesced, and fresh replies for
// the same key are bit-identical.
type SolveResponse struct {
	Loss        float64 `json:"loss"`
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	RelativeGap float64 `json:"relative_gap"`
	Bins        int     `json:"bins"`
	Iterations  int     `json:"iterations"`
	Converged   bool    `json:"converged"`
	Degraded    string  `json:"degraded,omitempty"`
	GridStep    float64 `json:"grid_step"`
	Key         string  `json:"key"`
}

// SweepRequest is the POST /v1/sweep body: a grid of cells over one queue
// description. Buffers and Cutoffs are the grid axes (each pair is one
// cell); when an axis is absent the embedded request's scalar Buffer or
// Cutoff is the single value. Cells are returned in row-major
// (buffer-outer, cutoff-inner) order, matching the lrdsweep TSV layout.
type SweepRequest struct {
	SolveRequest
	// Buffers are the normalized buffer sizes B/c in seconds swept by this
	// request; empty means the scalar Buffer field.
	Buffers []float64 `json:"buffers,omitempty"`
	// Cutoffs are the correlation cutoff lags Tc in seconds; empty means
	// the scalar Cutoff field (0 = infinite).
	Cutoffs []float64 `json:"cutoffs,omitempty"`
}

// MaxSweepCells bounds one batch request's grid: a request is cheap to
// send, so an unbounded grid would be an amplification hazard.
const MaxSweepCells = 4096

// Cells expands the grid into one SolveRequest per cell, row-major
// (buffer-outer, cutoff-inner). It is the single definition of the grid
// order both the server and typed clients rely on.
func (r *SweepRequest) Cells() ([]SolveRequest, error) {
	buffers := r.Buffers
	if len(buffers) == 0 {
		buffers = []float64{r.Buffer}
	}
	cutoffs := r.Cutoffs
	if len(cutoffs) == 0 {
		cutoffs = []float64{r.Cutoff}
	}
	if n := len(buffers) * len(cutoffs); n > MaxSweepCells {
		return nil, fmt.Errorf("sweep grid has %d cells, limit %d", n, MaxSweepCells)
	}
	out := make([]SolveRequest, 0, len(buffers)*len(cutoffs))
	for _, b := range buffers {
		for _, tc := range cutoffs {
			cell := r.SolveRequest
			cell.Buffer = b
			cell.Cutoff = tc
			out = append(out, cell)
		}
	}
	return out, nil
}

// SweepCellResult is one cell of a POST /v1/sweep reply. Status is the
// cell's own HTTP status; Result is the /v1/solve body for that cell (a
// SolveResponse on 200, an error object otherwise). Source is the cell's
// cache disposition (hit, miss, coalesced, or adopted — the last meaning
// another replica of a lease-sharing fleet computed it).
type SweepCellResult struct {
	Buffer float64         `json:"buffer"`
	Cutoff float64         `json:"cutoff,omitempty"`
	Status int             `json:"status"`
	Source string          `json:"source,omitempty"`
	Result json.RawMessage `json:"result"`
}

// SweepResponse is the POST /v1/sweep reply: one result per cell, in the
// request's row-major grid order. The response status is 200 when every
// cell succeeded and 207 when any cell carries its own error status.
type SweepResponse struct {
	Cells []SweepCellResult `json:"cells"`
}

// FitRequest is the POST /v1/fit body: a binned rate trace to fit the
// reference model to — the server-side form of the lrdfit pipeline. The
// reply carries everything needed to build a SolveRequest (or
// ProvisionRequest) for the fitted queue, so trace → fit → solve is two
// calls with no client-side estimation.
type FitRequest struct {
	// Rates is the binned rate series (average rate per bin); BinWidth is
	// the bin width in seconds. Both are required.
	Rates    []float64 `json:"rates"`
	BinWidth float64   `json:"bin_width"`
	// Bins is the histogram resolution for the marginal and mean-epoch fit
	// (the paper's 50). 0 means 50.
	Bins int `json:"bins,omitempty"`
	// Estimator picks the Hurst estimate used for the fit: aggvar, rs,
	// whittle, wavelet, gph, or median (the default — the median of the
	// estimators that succeeded).
	Estimator string `json:"estimator,omitempty"`
	// Hurst, when nonzero, overrides estimation entirely (the estimates are
	// still computed and reported as diagnostics).
	Hurst float64 `json:"hurst,omitempty"`
	// Cutoff is the correlation cutoff lag Tc in seconds the fitted
	// reference source carries; 0 or absent means infinite.
	Cutoff float64 `json:"cutoff,omitempty"`
	// Model names the registry model the fitted spec targets (validated
	// against the registry; absent means fluid).
	Model source.Spec `json:"model,omitempty"`
}

// EstimatorResult is one estimator's outcome in a FitResponse: the Hurst
// estimate when it succeeded, the error message when it rejected the trace
// (short series, zero variance, …). Exactly one field is populated.
type EstimatorResult struct {
	Hurst float64 `json:"hurst,omitempty"`
	Error string  `json:"error,omitempty"`
}

// FitResponse is the POST /v1/fit reply: the fitted reference-source
// parameters (directly pluggable into a SolveRequest: Marginal, Hurst or
// Alpha, Theta or Epoch, Cutoff, Model) plus per-estimator diagnostics.
type FitResponse struct {
	// Samples and BinWidth echo the analyzed trace's shape.
	Samples  int     `json:"samples"`
	BinWidth float64 `json:"bin_width"`
	// MeanRate is the trace's time-average rate; MeanEpoch the paper-style
	// mean epoch duration (average same-histogram-bin run length).
	MeanRate  float64 `json:"mean_rate"`
	MeanEpoch float64 `json:"mean_epoch"`
	// Hurst is the chosen estimate (after clamping into the model's (0.5,1)
	// domain); RawHurst the unclamped value; Estimator names which estimate
	// was chosen ("median" or a single estimator).
	Hurst     float64 `json:"hurst"`
	RawHurst  float64 `json:"raw_hurst"`
	Estimator string  `json:"estimator"`
	// Alpha and Theta are the derived reference-source parameters
	// (alpha = 3−2H; theta calibrated from the mean epoch).
	Alpha float64 `json:"alpha"`
	Theta float64 `json:"theta"`
	// Cutoff echoes the requested correlation cutoff (0 = infinite).
	Cutoff float64 `json:"cutoff,omitempty"`
	// Marginal is the fitted histogram marginal in the rate:prob wire syntax
	// a SolveRequest consumes.
	Marginal string `json:"marginal"`
	// Model echoes the validated model spec the fit targets.
	Model source.Spec `json:"model"`
	// Estimates carries every estimator's outcome by name (aggvar, rs,
	// whittle, wavelet, gph) — partial results included, so one estimator
	// rejecting a short trace never hides the others.
	Estimates map[string]EstimatorResult `json:"estimates"`
}

// SolveRequest returns the forward-solve request for the fitted queue at
// the given utilization and normalized buffer — the programmatic form of
// "take the /v1/fit reply and solve it".
func (f *FitResponse) SolveRequest(util, buffer float64) SolveRequest {
	return SolveRequest{
		Marginal: f.Marginal,
		Alpha:    f.Alpha,
		Theta:    f.Theta,
		Cutoff:   f.Cutoff,
		Util:     util,
		Buffer:   buffer,
		Model:    f.Model,
	}
}

// Provision targets: what the inverse solve solves for.
const (
	// TargetBuffer finds the minimal normalized buffer (seconds) meeting
	// the SLO at the request's fixed utilization or service rate.
	TargetBuffer = "buffer"
	// TargetService finds the minimal service rate meeting the SLO at the
	// request's fixed normalized buffer.
	TargetService = "service"
)

// ProvisionRequest is the POST /v1/provision body: the same queue
// description as a SolveRequest with the provisioned dimension left open,
// plus the loss SLO. Target "buffer" (the default) solves for the minimal
// normalized buffer given util-or-service; target "service" solves for the
// minimal service rate given the buffer.
type ProvisionRequest struct {
	SolveRequest
	// SLO is the target loss rate: the answer is the minimal buffer (or
	// service rate) whose loss provably meets the SLO. Required.
	SLO float64 `json:"slo"`
	// Target is "buffer" (default) or "service".
	Target string `json:"target,omitempty"`
	// Min and Max override the bracket searched for the target value
	// (normalized-buffer seconds, or utilization in (0,1) for the service
	// target). 0 means the server default.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Tol is the relative bracket width at which the bisection stops
	// (default 0.01: the answer is within 1% of minimal).
	Tol float64 `json:"tol,omitempty"`
}

// ProvisionResponse is the POST /v1/provision reply: the minimal feasible
// value, the tightest infeasible bracket point below it, and the
// root-find's cost diagnostics. Feasibility is decided on proven solver
// bounds, so the bracket invariant is exact: Loss <= SLO at Value and
// BracketLoss > SLO at Bracket, and an independent forward solve of Value
// brackets a true loss at or below the SLO.
type ProvisionResponse struct {
	// Target echoes the provisioned dimension ("buffer" or "service").
	Target string `json:"target"`
	// Value is the answer: minimal normalized buffer in seconds, or minimal
	// service rate in work units/s.
	Value float64 `json:"value"`
	// Loss is the proven upper bound on the loss at Value (<= SLO).
	Loss float64 `json:"loss"`
	// Bracket is the largest value probed whose loss bound failed to clear
	// the SLO, and BracketLoss that bound (> SLO). Bracket is 0 when the SLO
	// was already met at the bracket minimum, in which case BracketLoss is
	// absent.
	Bracket     float64 `json:"bracket"`
	BracketLoss float64 `json:"bracket_loss,omitempty"`
	// SLO echoes the request's target loss rate.
	SLO float64 `json:"slo"`
	// Util reports the resulting utilization at Value (service target only).
	Util float64 `json:"util,omitempty"`
	// Solves counts the probes spent, one forward solve each; WarmSolves
	// how many of them were warm-started from a previous iterate's
	// occupancy vectors.
	Solves     int `json:"solves"`
	WarmSolves int `json:"warm_solves,omitempty"`
}

// Error codes carried by the Error envelope's machine-readable Code field.
const (
	// CodeBadRequest: the request failed validation or decoding.
	CodeBadRequest = "bad_request"
	// CodeInfeasible: a provision SLO is unreachable inside the searched
	// bracket (the queue loses more than the SLO even at the bracket's
	// best-case end).
	CodeInfeasible = "infeasible"
	// CodeOverloaded: admission shed the request (429).
	CodeOverloaded = "overloaded"
	// CodeCanceled: the client went away or the request budget expired
	// before the work completed.
	CodeCanceled = "canceled"
	// CodeEstimation: the trace fit failed (no estimator produced a usable
	// Hurst estimate, degenerate marginal, …).
	CodeEstimation = "estimation"
	// CodeInternal: the server failed; the message is diagnostic only.
	CodeInternal = "internal"
)

// Error is the shared error envelope of every /v1 endpoint: a
// human-readable message under the legacy "error" key, plus an optional
// machine-readable code. A code-less Error marshals to exactly the
// pre-envelope {"error": "..."} bytes, so the /v1/solve and /v1/sweep wire
// encodings are unchanged; the new endpoints populate Code.
type Error struct {
	Message string `json:"error"`
	Code    string `json:"code,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code != "" {
		return e.Code + ": " + e.Message
	}
	return e.Message
}

// Errorf builds a coded Error with fmt formatting. An empty code yields
// the legacy envelope.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Message: fmt.Sprintf(format, args...), Code: code}
}
