package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/fit"
	"lrd/internal/obs"
)

// maxFitBody caps the /v1/fit request body. A trace is a few hundred
// thousand float64 bins — orders of magnitude bigger than a solve request —
// so the endpoint gets its own cap instead of the 1 MiB solve cap.
const maxFitBody = 16 << 20

// handleFit is POST /v1/fit: fit the paper's model ingredients to a binned
// rate trace and return everything a SolveRequest (or ProvisionRequest)
// needs. Estimation is CPU-light next to a solve (milliseconds of FFTs), so
// fits run outside the admission perimeter and are never cached.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add(obs.MetricServeRequests, 1)
	defer func() { s.reg.Observe(obs.MetricServeRequestSeconds, time.Since(start).Seconds()) }()
	_, finish := s.traceRequest(w, r, "serve.fit")

	var req api.FitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		finish(http.StatusBadRequest, "")
		s.failCode(w, http.StatusBadRequest, "bad_request", api.CodeBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	tr, opts, err := fit.FromRequest(req)
	if err != nil {
		finish(http.StatusBadRequest, "")
		s.failCode(w, http.StatusBadRequest, "bad_request", api.CodeBadRequest, err)
		return
	}
	res, err := fit.Trace(tr, opts)
	if err != nil {
		status, kind := http.StatusBadRequest, "bad_request"
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Code == api.CodeEstimation {
			// The trace was well-formed but unusable: the fit's failure, not
			// the request syntax's.
			status, kind = http.StatusUnprocessableEntity, "estimation"
		}
		finish(status, "")
		s.failCode(w, status, kind, api.CodeBadRequest, err)
		return
	}
	body, err := json.Marshal(res)
	if err != nil {
		finish(http.StatusInternalServerError, "")
		s.failCode(w, http.StatusInternalServerError, "encode", api.CodeInternal, fmt.Errorf("encoding response: %w", err))
		return
	}
	finish(http.StatusOK, "")
	writeJSON(w, http.StatusOK, "", body)
}

// handleProvision is POST /v1/provision: the inverse solve. The request is
// a queue description with the provisioned dimension left open plus a loss
// SLO; the reply is the minimal buffer (or service rate) meeting it, with
// the proven loss bound as proof and the infeasible bracket point below
// it. One admission slot covers the whole root-find — an inverse solve is
// a chain of warm-started forward solves, so it costs the admission
// perimeter exactly one concurrent solve no matter how many iterates it
// spends.
func (s *Server) handleProvision(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add(obs.MetricServeRequests, 1)
	defer func() { s.reg.Observe(obs.MetricServeRequestSeconds, time.Since(start).Seconds()) }()
	ctx, finish := s.traceRequest(w, r, "serve.provision")

	var req api.ProvisionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		finish(http.StatusBadRequest, "")
		s.failCode(w, http.StatusBadRequest, "bad_request", api.CodeBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	_, src, err := req.Source()
	if err != nil {
		finish(http.StatusBadRequest, "")
		s.failCode(w, http.StatusBadRequest, "bad_request", api.CodeBadRequest, err)
		return
	}
	opts := req.Options(solverConfig(&req.SolveRequest, s.cfg.Solver))
	opts.Solver.Recorder = s.reg

	release, status, body := s.admit(ctx)
	if release == nil {
		finish(status, "")
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		}
		writeJSON(w, status, "", body)
		return
	}
	defer release()

	// The request budget bounds the whole root-find through the context
	// (the per-solve degradation machinery is disabled inside Provision: a
	// budget-degraded loss would provision against the budget, not the
	// queue).
	if budget := s.budget(&req.SolveRequest); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	s.solves.Add(1)
	solveStart := time.Now()
	prov, err := core.Provision(ctx, src, opts)
	s.reg.Observe(obs.MetricServeSolveSeconds, time.Since(solveStart).Seconds())
	if err != nil {
		var inf *core.InfeasibleError
		switch {
		case errors.As(err, &inf):
			finish(http.StatusUnprocessableEntity, "")
			s.failCode(w, http.StatusUnprocessableEntity, "infeasible", api.CodeInfeasible, err)
		case ctx.Err() != nil:
			finish(http.StatusServiceUnavailable, "")
			s.failCode(w, http.StatusServiceUnavailable, "client_gone", api.CodeCanceled, err)
		default:
			finish(http.StatusBadRequest, "")
			s.failCode(w, http.StatusBadRequest, "bad_request", api.CodeBadRequest, err)
		}
		return
	}
	body, merr := json.Marshal(api.NewProvisionResponse(prov, req.SLO))
	if merr != nil {
		finish(http.StatusInternalServerError, "")
		s.failCode(w, http.StatusInternalServerError, "encode", api.CodeInternal, fmt.Errorf("encoding response: %w", merr))
		return
	}
	finish(http.StatusOK, "")
	writeJSON(w, http.StatusOK, "", body)
}
