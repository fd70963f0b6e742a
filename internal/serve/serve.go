// Package serve is the HTTP serving spine of the lrdserve command: a
// loss-rate-as-a-service layer over the bounded solver with production
// backpressure semantics.
//
// A request travels through four stages, each observable in /metrics:
//
//  1. Cache: the request's canonical key (see cacheKey) is looked up in an
//     LRU of marshaled response bodies; a hit replays bit-identical bytes
//     with X-Lrd-Cache: hit. With a journal attached the cache survives
//     restarts: fills append to the journal, startup replays it.
//  2. Singleflight: identical in-flight requests coalesce onto one solve;
//     followers wait for the leader's bytes (X-Lrd-Cache: coalesced) and
//     consume no solver slot.
//  3. Admission: at most MaxInflight solves run concurrently; up to
//     MaxQueue leaders wait for a slot; beyond that the request is shed
//     fast with 429 and a Retry-After hint, so overload never starves the
//     solves already running.
//  4. Solve: the per-request budget (request timeout clamped to the server
//     cap) maps onto the solver's MaxDuration machinery and the request
//     context, so expiry degrades gracefully to the best-so-far bracket
//     and a client disconnect cancels the solve.
//
// Only converged, non-degraded results are cached — a degraded bracket is
// a budget artifact, not the queue's answer.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/fleetstatus"
	"lrd/internal/obs"
	"lrd/internal/solver"
)

// Config tunes the server. The zero value serves with the defaults below.
type Config struct {
	// MaxInflight caps concurrent solves. Default 4.
	MaxInflight int
	// MaxQueue caps requests waiting for a solve slot; beyond it requests
	// are shed with 429. Default 16.
	MaxQueue int
	// CacheSize is the solve-cache capacity in entries. Default 1024;
	// negative disables caching.
	CacheSize int
	// RequestTimeout caps every request's solve budget; per-request timeouts
	// are clamped to it. Zero means no server-side cap.
	RequestTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429 responses. Default 1s.
	RetryAfter time.Duration
	// RateLimit is the per-client request rate (req/s, keyed by remote IP)
	// applied to /v1/ endpoints; 0 disables rate limiting. Excess requests
	// are shed with 429 and a queue-depth-aware Retry-After.
	RateLimit float64
	// RateBurst is the per-client burst capacity. Default max(1, ⌈2·RateLimit⌉).
	RateBurst int
	// Solver is the default solver configuration; requests may override the
	// convergence knobs (relgap, maxbins) per call.
	Solver solver.Config
	// Journal, when non-nil, persists the solve cache: every cache fill is
	// appended, and New warm-loads the journal's serve entries (keys are
	// namespaced, so sweep journals pass through harmlessly). Open it with
	// resume to get the warm start. A *core.JournalStore serves a single
	// replica. A journal that is also a core.LeaseClaimer (*core.LeaseStore,
	// shared across a fleet) coordinates solves between the replicas on it:
	// before computing, a singleflight leader leases the request key, and a
	// replica that finds another replica's lease blocks until that
	// replica's result lands, then adopts it (X-Lrd-Cache: adopted) — the
	// cross-process generalization of singleflight.
	Journal CacheJournal
	// Registry receives the serve metrics and backs /metrics. New creates
	// one when nil.
	Registry *obs.Registry
	// Status, when non-nil, backs GET /v1/status with a journal-derived
	// fleet view (typically an aggregator tailing the same journal the
	// cache/lease layer writes). Without it /v1/status reports an empty
	// fleet.
	Status *fleetstatus.Aggregator
	// SpanSink, when non-nil, receives the request/solve/journal spans of
	// every request (the -trace JSONL file on lrdserve).
	SpanSink obs.SpanSink
	// Logger, when non-nil, receives one structured line per request with
	// the correlated trace id attached. Nil disables request logging.
	Logger *slog.Logger
}

// CacheJournal is the durability surface the serving layer uses: Store
// appends one completed entry, Range replays every completed entry for the
// warm start.
type CacheJournal interface {
	Store(key string, value any) error
	Range(fn func(key string, value json.RawMessage) bool)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// flight is one in-flight solve that identical requests coalesce onto.
type flight struct {
	done    chan struct{}
	status  int
	body    []byte
	waiters atomic.Int64
}

// Server handles the lrdserve HTTP API. Create with New.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	sem   chan struct{}
	queue chan struct{}
	cache *lru

	mu      sync.Mutex
	flights map[string]*flight

	// ready/draining drive /readyz: advisory for load-balancer routing,
	// never a gate on requests that already arrived.
	ready    atomic.Bool
	draining atomic.Bool
	limiter  *rateLimiter

	// solves counts solver invocations; the singleflight e2e asserts it.
	solves atomic.Int64
	// beforeSolve, when non-nil, runs on the leader after admission and
	// before the solve — a test hook to hold solves open deterministically.
	beforeSolve func(key string)
}

// New builds a Server, warm-loading the solve cache from cfg.Journal when
// one is attached.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		sem:     make(chan struct{}, cfg.MaxInflight),
		queue:   make(chan struct{}, cfg.MaxQueue),
		flights: make(map[string]*flight),
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRU(cfg.CacheSize)
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	if s.cache != nil && cfg.Journal != nil {
		warmed := 0
		cfg.Journal.Range(func(key string, value json.RawMessage) bool {
			// Only this layer's keys: a shared journal may also hold sweep
			// cells, which are not response bodies.
			if len(key) < 3 || key[:3] != "v1|" {
				return true
			}
			s.cache.add(key, append([]byte(nil), value...))
			warmed++
			return warmed < cfg.CacheSize
		})
		if warmed > 0 {
			s.reg.Add(obs.MetricServeCacheWarmed, float64(warmed))
			s.reg.Set(obs.MetricServeCacheEntries, float64(s.cache.len()))
		}
	}
	return s
}

// Handler returns the HTTP API: POST /v1/solve, POST /v1/sweep,
// POST /v1/fit, POST /v1/provision, GET /metrics (Prometheus text; ?format=json for the JSON snapshot),
// GET /v1/status, GET /healthz, GET /readyz.
// The stack is wrapped by the admission perimeter: per-client rate
// limiting on /v1/ paths, panic recovery outermost.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/fit", s.handleFit)
	mux.HandleFunc("POST /v1/provision", s.handleProvision)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return s.recoverMiddleware(s.rateLimitMiddleware(mux))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := s.reg.Snapshot().WriteJSON(w); err != nil {
			// Headers are gone; nothing to do but note it.
			s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "metrics_write"), 1)
		}
		return
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	if err := s.reg.Snapshot().WritePrometheus(w); err != nil {
		s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "metrics_write"), 1)
	}
}

// handleStatus serves the fleet status. Without an aggregator the fleet
// view is empty (the server is running journal-less); the endpoint still
// answers so probes need not know the deployment mode.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := fleetstatus.Status{UnixMs: time.Now().UnixMilli()}
	if s.cfg.Status != nil {
		var err error
		if st, err = s.cfg.Status.Status(); err != nil {
			s.fail(w, http.StatusInternalServerError, "status", err)
			return
		}
	}
	body, err := json.Marshal(st)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encode", err)
		return
	}
	writeJSON(w, http.StatusOK, "", body)
}

// writeJSON sends body with the cache disposition header. Bodies for the
// same key are bit-identical across hit/miss/coalesced.
func writeJSON(w http.ResponseWriter, status int, disposition string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if disposition != "" {
		w.Header().Set("X-Lrd-Cache", disposition)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// errBody marshals the shared api.Error envelope. An empty code yields the
// legacy {"error":"..."} bytes — the /v1/solve and /v1/sweep paths pass ""
// so their wire encoding is unchanged; the fit/provision endpoints carry a
// machine-readable code.
func errBody(code, msg string) []byte {
	body, _ := json.Marshal(api.Error{Message: msg, Code: code})
	return body
}

func (s *Server) fail(w http.ResponseWriter, status int, kind string, err error) {
	s.failCode(w, status, kind, "", err)
}

// failCode is fail with a machine-readable envelope code. When err is
// already an *api.Error its own code wins, so typed errors from the
// provisioning layer pass through intact.
func (s *Server) failCode(w http.ResponseWriter, status int, kind, code string, err error) {
	s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", kind), 1)
	msg := err.Error()
	var aerr *api.Error
	if errors.As(err, &aerr) {
		msg, code = aerr.Message, aerr.Code
	}
	writeJSON(w, status, "", errBody(code, msg))
}

// traceRequest mints (or adopts, from an incoming X-Lrd-Trace header) the
// request's TraceContext, attaches it and the server's span sink to the
// context, echoes the trace id back as the X-Lrd-Trace response header,
// and opens the root request span. The returned finish closure emits the
// span and the per-request slog line.
func (s *Server) traceRequest(w http.ResponseWriter, r *http.Request, name string) (context.Context, func(status int, disposition string)) {
	start := time.Now()
	traceID := r.Header.Get("X-Lrd-Trace")
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	ctx := obs.ContextWithTrace(r.Context(), obs.TraceContext{TraceID: traceID})
	ctx = obs.ContextWithSpanSink(ctx, s.cfg.SpanSink)
	ctx, finishSpan := obs.StartSpan(ctx, name)
	w.Header().Set("X-Lrd-Trace", traceID)
	return ctx, func(status int, disposition string) {
		if obs.Traced(ctx) {
			finishSpan(map[string]string{
				"path":        r.URL.Path,
				"status":      strconv.Itoa(status),
				"disposition": disposition,
			})
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"disposition", disposition,
				"dur", time.Since(start).Round(time.Microsecond).String(),
				"trace", traceID)
		}
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add(obs.MetricServeRequests, 1)
	defer func() { s.reg.Observe(obs.MetricServeRequestSeconds, time.Since(start).Seconds()) }()
	ctx, finish := s.traceRequest(w, r, "serve.solve")

	var req api.SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		finish(http.StatusBadRequest, "")
		s.fail(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding request: %w", err))
		return
	}
	job, err := buildSolve(&req, s.cfg.Solver)
	if err != nil {
		finish(http.StatusBadRequest, "")
		s.fail(w, http.StatusBadRequest, "bad_request", err)
		return
	}

	status, disposition, body := s.solveOne(ctx, req, job)
	finish(status, disposition)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
	}
	writeJSON(w, status, disposition, body)
}

// handleSweep is the batch endpoint: one request describes a grid of
// cells (buffers × cutoffs over a shared queue description) and every
// cell runs through the same per-key pipeline as /v1/solve — cache,
// singleflight, fleet lease, admission — concurrently within the request,
// bounded by the server's admission limits. A fleet of replicas pointed
// at one shared lease journal splits a sweep without a coordinator: each
// cell is computed by exactly one replica and adopted by the rest.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add(obs.MetricServeRequests, 1)
	defer func() { s.reg.Observe(obs.MetricServeRequestSeconds, time.Since(start).Seconds()) }()
	ctx, finish := s.traceRequest(w, r, "serve.sweep")

	var req api.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		finish(http.StatusBadRequest, "")
		s.fail(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding request: %w", err))
		return
	}
	cells, err := req.Cells()
	if err != nil {
		finish(http.StatusBadRequest, "")
		s.fail(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	type built struct {
		req api.SolveRequest
		job solveJob
	}
	jobs := make([]built, len(cells))
	for i, cr := range cells {
		job, err := buildSolve(&cr, s.cfg.Solver)
		if err != nil {
			finish(http.StatusBadRequest, "")
			s.fail(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("cell %d (buffer=%g, cutoff=%g): %w", i, cr.Buffer, cr.Cutoff, err))
			return
		}
		jobs[i] = built{req: cr, job: job}
	}

	results := make([]api.SweepCellResult, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The middleware's recover cannot see this goroutine; guard it
			// here or one bad cell kills the replica.
			defer s.recoverCell(&results[i])
			results[i].Buffer, results[i].Cutoff = jobs[i].req.Buffer, jobs[i].req.Cutoff
			status, disposition, body := s.solveOne(ctx, jobs[i].req, jobs[i].job)
			results[i] = api.SweepCellResult{
				Buffer: jobs[i].req.Buffer,
				Cutoff: jobs[i].req.Cutoff,
				Status: status,
				Source: disposition,
				Result: json.RawMessage(body),
			}
		}(i)
	}
	wg.Wait()

	status := http.StatusOK
	for _, res := range results {
		if res.Status != http.StatusOK {
			status = http.StatusMultiStatus
			if res.Status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", s.retryAfterSeconds())
			}
		}
	}
	body, err := json.Marshal(api.SweepResponse{Cells: results})
	if err != nil {
		finish(http.StatusInternalServerError, "")
		s.fail(w, http.StatusInternalServerError, "encode", fmt.Errorf("encoding sweep response: %w", err))
		return
	}
	finish(status, "")
	writeJSON(w, status, "", body)
}

// budget is a request's wall-clock budget: its own timeout clamped to the
// server's request timeout, zero when neither is set.
func (s *Server) budget(req *api.SolveRequest) time.Duration {
	budget := time.Duration(req.Solver.Timeout)
	if s.cfg.RequestTimeout > 0 && (budget <= 0 || budget > s.cfg.RequestTimeout) {
		budget = s.cfg.RequestTimeout
	}
	return budget
}

// retryAfterSeconds renders the configured 429 hint for a Retry-After
// header (whole seconds, rounded up).
func (s *Server) retryAfterSeconds() string {
	return strconv.Itoa(int((s.cfg.RetryAfter + time.Second - 1) / time.Second))
}

// solveOne runs one request key through the pipeline — cache, singleflight,
// fleet lease, admission, solve — and returns the status, cache
// disposition, and body. It is context-based (no ResponseWriter) so the
// sweep endpoint can drive many keys through it per request; HTTP-only
// concerns like the Retry-After header live with the callers.
func (s *Server) solveOne(ctx context.Context, req api.SolveRequest, job solveJob) (int, string, []byte) {
	// Stage 1: cache.
	if s.cache != nil {
		if body, ok := s.cache.get(job.key); ok {
			s.reg.Add(obs.MetricServeCacheHits, 1)
			return http.StatusOK, "hit", body
		}
		s.reg.Add(obs.MetricServeCacheMisses, 1)
	}

	// Stage 2: singleflight. The first request for a key leads; identical
	// concurrent requests wait for its bytes without consuming solve slots.
	s.mu.Lock()
	if f, ok := s.flights[job.key]; ok {
		f.waiters.Add(1)
		s.mu.Unlock()
		s.reg.Add(obs.MetricServeCoalesced, 1)
		select {
		case <-f.done:
			return f.status, "coalesced", f.body
		case <-ctx.Done():
			s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "client_gone"), 1)
			return http.StatusServiceUnavailable, "", errBody("", ctx.Err().Error())
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[job.key] = f
	s.mu.Unlock()

	disposition := "miss"
	// The flight teardown is deferred so a panicking leader (unwinding to
	// the recover middleware) still releases its followers — otherwise the
	// stale flight would absorb every future request for this key forever.
	// No recover here: the panic keeps propagating; followers see a 500.
	defer func() {
		if f.status == 0 {
			f.status = http.StatusInternalServerError
			f.body = errBody("", "internal error")
		}
		s.mu.Lock()
		delete(s.flights, job.key)
		s.mu.Unlock()
		close(f.done)
	}()
	f.status, f.body = s.leaseAndSolve(ctx, req, job, &disposition)
	return f.status, disposition, f.body
}

// leaseAndSolve is the singleflight leader's path. When the journal is a
// fleet lease store it first claims the key across replicas: if another
// replica already completed it the result is adopted; if another replica
// holds the lease, this one blocks (bounded by ctx) and then adopts. Only
// the lease holder proceeds to admission and the solve; a solve that does
// not converge releases the lease so a peer (or retry) can take the key
// over, while a converged solve's journal append consumes it.
func (s *Server) leaseAndSolve(ctx context.Context, req api.SolveRequest, job solveJob, disposition *string) (int, []byte) {
	if claimer, leased := s.cfg.Journal.(core.LeaseClaimer); leased {
		leaseCtx, finishLease := obs.StartSpan(ctx, "lease.acquire")
		raw, acquired, err := claimer.Acquire(leaseCtx, job.key)
		if obs.Traced(ctx) {
			finishLease(map[string]string{"key": job.key, "acquired": strconv.FormatBool(acquired)})
		}
		if err != nil {
			s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "lease"), 1)
			return http.StatusServiceUnavailable, errBody("", "acquiring fleet lease: "+err.Error())
		}
		if !acquired {
			body := append([]byte(nil), raw...)
			*disposition = "adopted"
			if s.cache != nil {
				// A peer only journals converged results; cache it.
				if evicted := s.cache.add(job.key, body); evicted > 0 {
					s.reg.Add(obs.MetricServeCacheEvicted, float64(evicted))
				}
				s.reg.Set(obs.MetricServeCacheEntries, float64(s.cache.len()))
			}
			return http.StatusOK, body
		}
		// Store consumes the lease when the result journals; every other
		// outcome hands it back so peers need not wait out the TTL.
		defer claimer.Release(job.key)
	}
	return s.admitAndSolve(ctx, req, job)
}

// admit claims a solve slot: fast path a free slot, else a bounded queue
// wait, else an immediate 429 shed. On success it returns a non-nil
// release closure and zero status; on failure release is nil and status/
// body carry the ready-to-send error. The provision handler holds one
// admission for its whole root-find, so an inverse solve consumes exactly
// one slot no matter how many forward solves it spends.
func (s *Server) admit(ctx context.Context) (release func(), status int, body []byte) {
	select {
	case s.sem <- struct{}{}:
	default:
		// All slots busy: wait in the bounded queue, or shed fast.
		select {
		case s.queue <- struct{}{}:
		default:
			s.reg.Add(obs.MetricServeShed, 1)
			return nil, http.StatusTooManyRequests, errBody("", "overloaded: solve queue is full")
		}
		s.reg.Add(obs.MetricServeQueued, 1)
		s.reg.Set(obs.MetricServeQueueDepth, float64(len(s.queue)))
		select {
		case s.sem <- struct{}{}:
			<-s.queue
			s.reg.Set(obs.MetricServeQueueDepth, float64(len(s.queue)))
		case <-ctx.Done():
			<-s.queue
			s.reg.Set(obs.MetricServeQueueDepth, float64(len(s.queue)))
			s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "client_gone"), 1)
			return nil, http.StatusServiceUnavailable, errBody("", "canceled while queued: "+ctx.Err().Error())
		}
	}
	s.reg.Add(obs.MetricServeAdmitted, 1)
	s.reg.Set(obs.MetricServeInflight, float64(len(s.sem)))
	return func() {
		<-s.sem
		s.reg.Set(obs.MetricServeInflight, float64(len(s.sem)))
	}, 0, nil
}

// admitAndSolve runs stages 3 and 4 for a singleflight leader: bounded
// admission, then the budgeted solve. It returns the status and body that
// both the leader and its coalesced followers receive — including shed
// (429) and canceled-while-queued outcomes, which followers share.
func (s *Server) admitAndSolve(ctx context.Context, req api.SolveRequest, job solveJob) (int, []byte) {
	// Stage 3: admission.
	release, status, body := s.admit(ctx)
	if release == nil {
		return status, body
	}
	defer release()

	if s.beforeSolve != nil {
		s.beforeSolve(job.key)
	}

	// Stage 4: the budgeted solve. The request budget (clamped to the
	// server cap) becomes the solver's MaxDuration; the context cancels
	// the solve when the client goes away.
	cfg := solverConfig(&req, s.cfg.Solver)
	cfg.Recorder = s.reg
	cfg.MaxDuration = s.budget(&req)

	s.solves.Add(1)
	solveStart := time.Now()
	res, err := solver.SolveModelContext(ctx, job.model, cfg)
	s.reg.Observe(obs.MetricServeSolveSeconds, time.Since(solveStart).Seconds())
	if err != nil {
		var nerr *solver.NumericError
		kind, status := "solve", http.StatusInternalServerError
		if errors.As(err, &nerr) {
			kind = "numeric"
		}
		s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", kind), 1)
		return status, errBody("", err.Error())
	}

	body, merr := json.Marshal(api.NewSolveResponse(res, job.key))
	if merr != nil {
		s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "encode"), 1)
		return http.StatusInternalServerError, errBody("", "encoding response: "+merr.Error())
	}

	// Only converged, non-degraded results enter the cache: a degraded
	// bracket reflects this request's budget, not the queue.
	if s.cache != nil && res.Converged && res.Degraded == "" {
		if evicted := s.cache.add(job.key, body); evicted > 0 {
			s.reg.Add(obs.MetricServeCacheEvicted, float64(evicted))
		}
		s.reg.Set(obs.MetricServeCacheEntries, float64(s.cache.len()))
		if s.cfg.Journal != nil {
			_, finishAppend := obs.StartSpan(ctx, "journal.append")
			jerr := s.cfg.Journal.Store(job.key, json.RawMessage(body))
			if obs.Traced(ctx) {
				finishAppend(map[string]string{"key": job.key})
			}
			if jerr != nil {
				// The response is still good; durability degraded.
				s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "journal"), 1)
			}
		}
	}
	return http.StatusOK, body
}
