package resilient

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lrd/internal/obs"
)

// fakeClock is a mutex-protected manual clock; roundTrip goroutines read
// it concurrently under -race.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func httpResp(status int, body string, hdr http.Header) *http.Response {
	if hdr == nil {
		hdr = http.Header{}
	}
	return &http.Response{StatusCode: status, Header: hdr, Body: io.NopCloser(strings.NewReader(body))}
}

// harness builds a client over fake replicas with a manual clock, recorded
// sleeps (which advance the clock instead of waiting), and a fixed-jitter
// rng so every delay is exact.
type harness struct {
	clock  *fakeClock
	sleeps []time.Duration
	rngVal float64
	calls  atomic.Int64
	rec    *obs.Registry
}

func newHarness(t *testing.T, fleet []string, p Policy, rt rtFunc) (*Client, *harness) {
	t.Helper()
	h := &harness{clock: newFakeClock(), rngVal: 1}
	h.rec = obs.NewRegistry()
	c, err := New(fleet, Options{Policy: p, Recorder: h.rec, Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
		h.calls.Add(1)
		return rt(r)
	})})
	if err != nil {
		t.Fatal(err)
	}
	c.now = h.clock.now
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		h.sleeps = append(h.sleeps, d)
		h.clock.advance(d)
		return nil
	}
	c.rng = func() float64 { return h.rngVal }
	return c, h
}

func (h *harness) counter(name string) float64 {
	return h.rec.Snapshot().Counters[name]
}

// TestBackoffBounds: the k-th retry delay is uniform on
// [0, min(MaxBackoff, Base·2ᵏ⁻¹)] — verified at both jitter extremes.
func TestBackoffBounds(t *testing.T) {
	c, h := newHarness(t, []string{"http://a.test"}, Policy{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
	}, nil)

	h.rngVal = 1 // upper edge
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second}
	for k, w := range want {
		if got := c.backoff(k + 1); got != w {
			t.Errorf("backoff(%d) at jitter 1 = %v, want %v", k+1, got, w)
		}
	}
	h.rngVal = 0 // lower edge: full jitter reaches zero
	for k := 1; k <= 6; k++ {
		if got := c.backoff(k); got != 0 {
			t.Errorf("backoff(%d) at jitter 0 = %v, want 0", k, got)
		}
	}
	h.rngVal = 0.5
	if got := c.backoff(2); got != 100*time.Millisecond {
		t.Errorf("backoff(2) at jitter 0.5 = %v, want 100ms", got)
	}
}

// TestRetryOnTransportErrorThenSuccess: transport failures are retried and
// the eventual success is returned with the right attempt number.
func TestRetryOnTransportErrorThenSuccess(t *testing.T) {
	var n atomic.Int64
	c, h := newHarness(t, []string{"http://a.test"}, Policy{MaxAttempts: 4}, func(r *http.Request) (*http.Response, error) {
		if n.Add(1) <= 2 {
			return nil, errors.New("connection refused")
		}
		return httpResp(200, `{"ok":true}`, nil), nil
	})
	res, err := c.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || res.Attempt != 3 || res.Replica != "http://a.test" {
		t.Fatalf("res = %+v", res)
	}
	if got := h.counter(obs.MetricResilientRetries); got != 2 {
		t.Fatalf("retries counter = %v, want 2", got)
	}
}

// TestRetryAfterHonored: a 503's Retry-After raises the next delay to the
// server's ask (jitter forced to zero), and an absurd ask is capped at
// MaxBackoff.
func TestRetryAfterHonored(t *testing.T) {
	var n atomic.Int64
	hdr1 := http.Header{"Retry-After": []string{"3"}}
	hdr2 := http.Header{"Retry-After": []string{"3600"}}
	c, h := newHarness(t, []string{"http://a.test"}, Policy{
		MaxAttempts: 4,
		MaxBackoff:  5 * time.Second,
	}, func(r *http.Request) (*http.Response, error) {
		switch n.Add(1) {
		case 1:
			return httpResp(503, "busy", hdr1), nil
		case 2:
			return httpResp(503, "busy", hdr2), nil
		default:
			return httpResp(200, "ok", nil), nil
		}
	})
	h.rngVal = 0 // jittered backoff contributes nothing; Retry-After rules
	res, err := c.Do(context.Background(), http.MethodGet, "/v1/solve", nil)
	if err != nil || res.Status != 200 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if len(h.sleeps) != 2 || h.sleeps[0] != 3*time.Second || h.sleeps[1] != 5*time.Second {
		t.Fatalf("sleeps = %v, want [3s 5s(capped)]", h.sleeps)
	}
	if got := h.counter(obs.MetricResilientRetryAfter); got != 2 {
		t.Fatalf("retry-after counter = %v, want 2", got)
	}
}

// TestRetryAfterBelowBackoffIgnored: when the jittered backoff already
// exceeds the server's ask, the longer delay wins (never sleep less than
// the policy would have).
func TestRetryAfterBelowBackoffIgnored(t *testing.T) {
	var n atomic.Int64
	c, h := newHarness(t, []string{"http://a.test"}, Policy{
		BaseBackoff: 2 * time.Second,
		MaxBackoff:  10 * time.Second,
	}, func(r *http.Request) (*http.Response, error) {
		if n.Add(1) == 1 {
			return httpResp(429, "shed", http.Header{"Retry-After": []string{"1"}}), nil
		}
		return httpResp(200, "ok", nil), nil
	})
	h.rngVal = 1
	if _, err := c.Do(context.Background(), http.MethodGet, "/", nil); err != nil {
		t.Fatal(err)
	}
	if len(h.sleeps) != 1 || h.sleeps[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want [2s] (backoff beats the 1s ask)", h.sleeps)
	}
}

// TestNonRetryableStatusReturnsImmediately: 4xx (except 429) is the
// caller's problem, not the fleet's — one transport call, err nil.
func TestNonRetryableStatusReturnsImmediately(t *testing.T) {
	c, h := newHarness(t, []string{"http://a.test"}, Policy{}, func(r *http.Request) (*http.Response, error) {
		return httpResp(400, "bad marginal", nil), nil
	})
	res, err := c.Do(context.Background(), http.MethodPost, "/v1/solve", []byte(`{}`))
	if err != nil || res.Status != 400 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if h.calls.Load() != 1 {
		t.Fatalf("transport called %d times, want 1", h.calls.Load())
	}
}

// TestBreakerOpensAndFastFails: after the failure threshold the breaker
// trips; further attempts never reach the transport while the cooldown
// runs, and Do reports every breaker open.
func TestBreakerOpensAndFastFails(t *testing.T) {
	c, h := newHarness(t, []string{"http://a.test"}, Policy{
		MaxAttempts:     1,
		BreakerFailures: 2,
		BreakerCooldown: 10 * time.Second,
	}, func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("down")
	})
	for i := 0; i < 2; i++ {
		if _, err := c.Do(context.Background(), http.MethodGet, "/", nil); err == nil {
			t.Fatal("want transport error")
		}
	}
	if got := h.counter(obs.MetricResilientBreakerOpens); got != 1 {
		t.Fatalf("opens counter = %v, want 1", got)
	}
	_, err := c.Do(context.Background(), http.MethodGet, "/", nil)
	if !errors.Is(err, ErrAllBreakersOpen) {
		t.Fatalf("err = %v, want ErrAllBreakersOpen", err)
	}
	if h.calls.Load() != 2 {
		t.Fatalf("transport called %d times, want 2 (fast-fail skipped it)", h.calls.Load())
	}
	if got := h.counter(obs.MetricResilientBreakerFastFail); got != 1 {
		t.Fatalf("fastfail counter = %v, want 1", got)
	}
}

// TestBreakerHalfOpenProbe: after the cooldown one probe goes through; a
// successful probe closes the breaker, a failed probe re-opens it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	c, h := newHarness(t, []string{"http://a.test"}, Policy{
		MaxAttempts:     1,
		BreakerFailures: 2,
		BreakerCooldown: 10 * time.Second,
	}, func(r *http.Request) (*http.Response, error) {
		if fail.Load() {
			return nil, errors.New("down")
		}
		return httpResp(200, "ok", nil), nil
	})
	trip := func() {
		for i := 0; i < 2; i++ {
			c.Do(context.Background(), http.MethodGet, "/", nil)
		}
	}
	trip()

	// Probe succeeds → breaker closes, traffic flows again.
	h.clock.advance(11 * time.Second)
	fail.Store(false)
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil)
	if err != nil || res.Status != 200 {
		t.Fatalf("probe: res=%+v err=%v", res, err)
	}
	if got := h.counter(obs.MetricResilientBreakerProbes); got != 1 {
		t.Fatalf("probes counter = %v, want 1", got)
	}
	if !c.replicas[0].b.closed() {
		t.Fatal("breaker still not closed after successful probe")
	}

	// Trip again; a failed probe re-opens immediately.
	fail.Store(true)
	trip()
	h.clock.advance(11 * time.Second)
	c.Do(context.Background(), http.MethodGet, "/", nil) // failed probe
	if got := h.counter(obs.MetricResilientBreakerOpens); got != 3 {
		t.Fatalf("opens counter = %v, want 3 (trip, trip, failed probe)", got)
	}
	if _, err := c.Do(context.Background(), http.MethodGet, "/", nil); !errors.Is(err, ErrAllBreakersOpen) {
		t.Fatalf("after failed probe: err = %v, want fast-fail", err)
	}
}

// TestRotationSkipsOpenBreaker: with one dead replica tripped, every
// subsequent request lands on the healthy one — no wasted attempts.
func TestRotationSkipsOpenBreaker(t *testing.T) {
	var healthy atomic.Int64
	c, _ := newHarness(t, []string{"http://dead.test", "http://live.test"}, Policy{
		MaxAttempts:     2,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
	}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "dead.test" {
			return nil, errors.New("down")
		}
		healthy.Add(1)
		return httpResp(200, "ok", nil), nil
	})
	for i := 0; i < 6; i++ {
		res, err := c.Do(context.Background(), http.MethodGet, "/", nil)
		if err != nil || res.Status != 200 || res.Replica != "http://live.test" {
			t.Fatalf("iter %d: res=%+v err=%v", i, res, err)
		}
	}
	if healthy.Load() != 6 {
		t.Fatalf("healthy replica served %d, want 6", healthy.Load())
	}
}

// TestHedgedRequestWinsAndCancelsPrimary: the primary stalls, the hedge
// timer fires, a duplicate goes to the second replica and wins; the
// primary's in-flight request is canceled.
func TestHedgedRequestWinsAndCancelsPrimary(t *testing.T) {
	primaryCanceled := make(chan struct{})
	c, h := newHarness(t, []string{"http://slow.test", "http://fast.test"}, Policy{
		MaxAttempts: 1,
		HedgeAfter:  50 * time.Millisecond,
	}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "slow.test" {
			<-r.Context().Done() // stall until hedging cancels us
			close(primaryCanceled)
			return nil, r.Context().Err()
		}
		return httpResp(200, `{"loss":0.25}`, nil), nil
	})
	// Pre-fired hedge timer: the "delay" elapses instantly.
	fired := make(chan time.Time, 1)
	fired <- time.Time{}
	c.afterFn = func(d time.Duration) (<-chan time.Time, func() bool) {
		if d != 50*time.Millisecond {
			t.Errorf("hedge delay = %v, want 50ms", d)
		}
		return fired, func() bool { return false }
	}

	res, err := c.Do(context.Background(), http.MethodGet, "/v1/solve", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged || res.Replica != "http://fast.test" || res.Status != 200 {
		t.Fatalf("res = %+v, want hedged win from fast.test", res)
	}
	select {
	case <-primaryCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("primary request was never canceled")
	}
	if h.counter(obs.MetricResilientHedges) != 1 || h.counter(obs.MetricResilientHedgeWins) != 1 {
		t.Fatalf("hedge counters = %v/%v, want 1/1",
			h.counter(obs.MetricResilientHedges), h.counter(obs.MetricResilientHedgeWins))
	}
	// The canceled primary must not have been scored against its breaker.
	if !c.replicas[0].b.closed() {
		t.Fatal("canceled primary counted as a breaker failure")
	}
}

// TestHedgeSkipsNonClosedBreakers: with the only other replica tripped,
// the hedge timer finds no candidate and the primary's answer stands.
func TestHedgeSkipsNonClosedBreakers(t *testing.T) {
	block := make(chan struct{})
	c, h := newHarness(t, []string{"http://a.test", "http://b.test"}, Policy{
		MaxAttempts: 1,
		HedgeAfter:  time.Millisecond,
	}, func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "b.test" {
			t.Error("hedged to a replica with an open breaker")
		}
		<-block
		return httpResp(200, "ok", nil), nil
	})
	c.replicas[1].b.state = stateOpen
	c.replicas[1].b.openedAt = c.now()
	fired := make(chan time.Time, 1)
	fired <- time.Time{}
	c.afterFn = func(d time.Duration) (<-chan time.Time, func() bool) { return fired, func() bool { return false } }
	go func() { time.Sleep(10 * time.Millisecond); close(block) }()
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil)
	if err != nil || res.Hedged {
		t.Fatalf("res=%+v err=%v, want unhedged success", res, err)
	}
	if h.counter(obs.MetricResilientHedges) != 0 {
		t.Fatal("hedge launched despite open breaker")
	}
}

// TestContextCancelDuringBackoff: a canceled caller context aborts the
// retry loop from inside the backoff sleep.
func TestContextCancelDuringBackoff(t *testing.T) {
	c, _ := newHarness(t, []string{"http://a.test"}, Policy{MaxAttempts: 5}, func(r *http.Request) (*http.Response, error) {
		return nil, errors.New("down")
	})
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the deadline fires mid-backoff
		return ctx.Err()
	}
	_, err := c.Do(ctx, http.MethodGet, "/", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExhaustedAttemptsReturnLastResponse: when retries run out on a
// retryable status, the caller still gets that final response to inspect.
func TestExhaustedAttemptsReturnLastResponse(t *testing.T) {
	c, _ := newHarness(t, []string{"http://a.test"}, Policy{MaxAttempts: 3}, func(r *http.Request) (*http.Response, error) {
		return httpResp(503, "still busy", nil), nil
	})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil)
	if err != nil || res.Status != 503 {
		t.Fatalf("res=%+v err=%v, want the final 503", res, err)
	}
}

// TestDoJSON: request/response bodies round-trip; non-2xx surfaces as a
// StatusError carrying replica and body.
func TestDoJSON(t *testing.T) {
	c, _ := newHarness(t, []string{"http://a.test"}, Policy{}, func(r *http.Request) (*http.Response, error) {
		b, _ := io.ReadAll(r.Body)
		if !strings.Contains(string(b), `"util":0.8`) {
			return httpResp(400, `{"error":"bad request"}`, nil), nil
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		return httpResp(200, `{"loss":0.125}`, nil), nil
	})
	var out struct {
		Loss float64 `json:"loss"`
	}
	if _, err := c.DoJSON(context.Background(), http.MethodPost, "/v1/solve", map[string]float64{"util": 0.8}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Loss != 0.125 {
		t.Fatalf("loss = %v", out.Loss)
	}
	var se *StatusError
	_, err := c.DoJSON(context.Background(), http.MethodPost, "/v1/solve", map[string]float64{"util": 0.2}, &out)
	if !errors.As(err, &se) || se.Status != 400 || se.Replica != "http://a.test" {
		t.Fatalf("err = %v, want StatusError{400, a.test}", err)
	}
}

// TestParseRetryAfter covers both header forms and garbage.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		v    string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"-1", 0},
		{"soon", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.v != "" {
			h.Set("Retry-After", tc.v)
		}
		if got := parseRetryAfter(h, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// TestNewRejectsBadFleet: empty fleets and relative URLs are config
// errors, not runtime surprises.
func TestNewRejectsBadFleet(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New([]string{"not-a-url"}, Options{}); err == nil {
		t.Fatal("relative URL accepted")
	}
}

// TestDisabledPathAllocs: with no recorder, the per-request resilience
// bookkeeping — replica pick, breaker verdict, backoff arithmetic —
// allocates nothing.
func TestDisabledPathAllocs(t *testing.T) {
	c, err := New([]string{"http://a.test", "http://b.test"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rep, _ := c.pick()
		c.settle(rep, &okResp, nil, false)
		_ = c.backoff(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v/op, want 0", allocs)
	}
}

var okResp = Response{Status: 200}

func BenchmarkPickSettle(b *testing.B) {
	c, err := New([]string{"http://a.test", "http://b.test", "http://c.test"}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, _ := c.pick()
		c.settle(rep, &okResp, nil, false)
	}
}

func BenchmarkBackoff(b *testing.B) {
	c, _ := New([]string{"http://a.test"}, Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.backoff(1 + i%4)
	}
}
