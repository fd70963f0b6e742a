package serve

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"lrd/internal/api"
	"lrd/internal/obs"
)

// This file is the admission perimeter around the solve pipeline: the
// readiness signal load balancers route on, the per-client rate limiter
// that keeps one greedy client from starving a fleet's other tenants, and
// the panic barrier that turns a handler bug into a 500 + metric instead
// of a dead replica.

// MarkReady flips /readyz to 200. Call it once the listener is accepting
// and the cache warm-load has finished — before that, a load balancer
// routing on readiness would send traffic into the cold start.
func (s *Server) MarkReady() {
	s.ready.Store(true)
	s.reg.Set(obs.MetricServeReady, 1)
}

// StartDrain flips /readyz to 503 ("draining") while /v1 endpoints keep
// answering. Call it before closing the listener so load balancers stop
// routing new work here during the grace window; in-flight and
// stragglers still complete.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.reg.Set(obs.MetricServeReady, 0)
}

// Draining reports whether StartDrain has been called (used by tests and
// the shutdown sequencing in cmd/lrdserve).
func (s *Server) Draining() bool { return s.draining.Load() }

// handleReady is the load-balancer contract: 200 only when warm and not
// draining. It deliberately gates routing, not solving — a request that
// already arrived is served regardless.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting"}`)
	default:
		fmt.Fprintln(w, `{"status":"ready"}`)
	}
}

// recoverMiddleware converts a handler panic into a 500 with a metric and
// a logged stack, so one poisoned request cannot take the replica down.
// http.ErrAbortHandler passes through untouched — it is net/http's own
// sanctioned way to abort a response.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.reg.Add(obs.MetricServePanics, 1)
			s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "panic"), 1)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("panic in handler",
					"path", r.URL.Path,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()))
			}
			// Best effort: if the handler already wrote, this is a no-op on
			// the status but still ends the response.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(errBody("", "internal error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// recoverCell guards one sweep cell's goroutine the same way (a goroutine
// panic would crash the process straight past any middleware).
func (s *Server) recoverCell(result *api.SweepCellResult) {
	rec := recover()
	if rec == nil {
		return
	}
	s.reg.Add(obs.MetricServePanics, 1)
	s.reg.Add(obs.Labeled(obs.MetricServeErrors, "kind", "panic"), 1)
	result.Status = http.StatusInternalServerError
	result.Result = errBody("", "internal error")
}

// maxRateClients bounds the limiter's per-client table; beyond it the
// stalest idle entries are evicted (an adversary cycling source addresses
// degrades to unlimited concurrency, not unbounded memory).
const maxRateClients = 10000

// rateClientIdleEvict is how long a client must be idle before eviction
// may reclaim its bucket.
const rateClientIdleEvict = time.Minute

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a per-client token bucket keyed by remote host. rate is
// tokens/second, burst the bucket capacity.
type rateLimiter struct {
	mu      sync.Mutex
	clients map[string]*bucket
	rate    float64
	burst   float64
	now     func() time.Time // injectable for tests
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst <= 0 {
		// Default burst: enough for a small command-line batch, scaled with
		// the rate so high-rate configs are not needlessly spiky-hostile.
		burst = int(math.Max(1, math.Ceil(2*rate)))
	}
	return &rateLimiter{
		clients: make(map[string]*bucket),
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
	}
}

// take attempts to spend one token for the client. When the bucket is
// empty it returns ok=false and how long until a token accrues.
func (l *rateLimiter) take(client string) (ok bool, wait time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[client]
	if b == nil {
		if len(l.clients) >= maxRateClients {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / l.rate * float64(time.Second))
}

// evictLocked drops idle buckets; if every client is active it removes
// one arbitrarily so the table stays bounded no matter what.
func (l *rateLimiter) evictLocked(now time.Time) {
	dropped := false
	for k, b := range l.clients {
		if now.Sub(b.last) > rateClientIdleEvict {
			delete(l.clients, k)
			dropped = true
		}
	}
	if !dropped {
		for k := range l.clients {
			delete(l.clients, k)
			return
		}
	}
}

// clientKey extracts the rate-limit key from a request: the remote IP
// without the ephemeral port (one laptop = one bucket, not one bucket per
// connection).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// rateLimitMiddleware applies the per-client bucket to the solve API only
// (/v1/…); health, readiness, and metrics stay unthrottled so operators
// and probes are never locked out by a chatty tenant on the same host.
func (s *Server) rateLimitMiddleware(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.Path) >= 4 && r.URL.Path[:4] == "/v1/" {
			if ok, wait := s.limiter.take(clientKey(r)); !ok {
				s.reg.Add(obs.MetricServeRateLimited, 1)
				w.Header().Set("Retry-After", s.rateRetryAfter(wait))
				s.fail(w, http.StatusTooManyRequests, "rate_limited",
					fmt.Errorf("rate limit exceeded (%g req/s per client)", s.limiter.rate))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// rateRetryAfter turns a token-accrual wait into a Retry-After hint that
// also accounts for the solve queue's current depth: a client told to
// come back should not immediately land in a full queue and get shed
// again. Whole seconds, rounded up, floor 1.
func (s *Server) rateRetryAfter(wait time.Duration) string {
	if n := len(s.queue); n > 0 && s.cfg.MaxQueue > 0 {
		wait += time.Duration(float64(s.cfg.RetryAfter) * float64(n) / float64(s.cfg.MaxQueue))
	}
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
