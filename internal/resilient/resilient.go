// Package resilient is the fleet-facing HTTP client under lrdcall and
// lrdsweep's remote mode: the piece that lets a sweep ride a flaky
// lrdserve fleet without either hammering a struggling replica or
// abandoning work a healthy one could finish.
//
// The policy layers compose per request:
//
//   - Retries with exponential backoff and full jitter (delay is uniform
//     on [0, min(cap, base·2ᵏ)]), so a thundering herd of workers decor-
//     relates instead of re-colliding. A 429/503 Retry-After header, when
//     present, raises the next delay to what the server asked for (capped
//     by MaxBackoff — a confused server cannot stall a sweep forever).
//   - Per-host circuit breakers: after BreakerFailures consecutive
//     transport errors or 5xx responses a replica's breaker opens and the
//     client stops sending to it; after BreakerCooldown one half-open
//     probe request tests the water, closing the breaker on success and
//     re-opening it immediately on failure. With several replicas the
//     round-robin rotation simply skips open breakers, so retries land on
//     healthy hosts without waiting out a dead one.
//   - Optional hedging: when a request has been in flight for HedgeAfter, a
//     duplicate is sent to a second healthy replica and the first response
//     wins; the loser is canceled. Hedging is idempotent-safe here because
//     every lrdserve endpoint is a deterministic, cacheable computation.
//   - Context-deadline propagation: the caller's ctx bounds everything —
//     transport, backoff sleeps, and hedge waits all abort with ctx.Err().
//
// All time sources (clock, sleep, hedge timer, jitter) are injectable, so
// the unit suite proves the policy under a fake clock; the disabled paths
// (no recorder, no hedging) are 0 allocs/op, matching the obs layer's bar.
package resilient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lrd/internal/obs"
)

// Policy is the per-client resilience configuration. The zero value means
// "defaults" (see the field comments), not "disabled" — except HedgeAfter,
// whose zero genuinely disables hedging.
type Policy struct {
	// MaxAttempts is the total tries per Do call (first attempt included).
	// Default 4.
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule: the k-th retry waits
	// uniform [0, min(MaxBackoff, BaseBackoff·2ᵏ⁻¹)]. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps every delay, including an honored Retry-After.
	// Default 5s.
	MaxBackoff time.Duration
	// BreakerFailures is the consecutive-failure count that opens a host's
	// circuit breaker. Default 5.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// allowing one half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// HedgeAfter duplicates an in-flight request to a second replica after
	// this delay. Zero disables hedging.
	HedgeAfter time.Duration
	// MaxBodyBytes caps a response body read. Default 8 MiB.
	MaxBodyBytes int64
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.BreakerFailures <= 0 {
		p.BreakerFailures = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 5 * time.Second
	}
	if p.MaxBodyBytes <= 0 {
		p.MaxBodyBytes = 8 << 20
	}
	return p
}

// Options configures New beyond the policy.
type Options struct {
	// Policy is the resilience configuration (zero value = defaults).
	Policy Policy
	// Transport overrides the HTTP transport (default http.DefaultTransport).
	Transport http.RoundTripper
	// Recorder receives the resilient_* metrics. Nil disables them for free.
	Recorder obs.Recorder
}

// ErrAllBreakersOpen is wrapped by Do when every replica's circuit breaker
// refused the attempt.
var ErrAllBreakersOpen = errors.New("resilient: all replica breakers are open")

// StatusError is returned by DoJSON for a non-2xx final response, carrying
// enough context to say which replica said what.
type StatusError struct {
	Status  int
	Body    []byte
	Replica string
}

func (e *StatusError) Error() string {
	body := string(e.Body)
	if len(body) > 200 {
		body = body[:200] + "…"
	}
	return fmt.Sprintf("resilient: %s replied %d: %s", e.Replica, e.Status, strings.TrimSpace(body))
}

// Response is the outcome of a Do call: the winning replica's reply with
// the body fully read.
type Response struct {
	Status  int
	Header  http.Header
	Body    []byte
	Replica string // base URL of the replica that answered
	Attempt int    // 1-based attempt number that produced this response
	Hedged  bool   // answered by the hedged duplicate, not the primary
}

// replica is one fleet member: its base URL and circuit breaker.
type replica struct {
	base    *url.URL
	baseStr string
	b       breaker
}

// Client is a fleet-aware HTTP client. Safe for concurrent use.
type Client struct {
	replicas  []*replica
	policy    Policy
	transport http.RoundTripper
	rec       obs.Recorder
	next      atomic.Uint64 // round-robin cursor over replicas

	// Injectable time and randomness, for the fake-clock unit suite.
	now     func() time.Time
	sleep   func(ctx context.Context, d time.Duration) error
	afterFn func(d time.Duration) (<-chan time.Time, func() bool)
	rng     func() float64 // uniform [0,1) jitter source
}

// New builds a Client over the fleet's base URLs (e.g.
// "http://10.0.0.1:8080"). At least one replica is required; order only
// seeds the round-robin rotation.
func New(fleet []string, opts Options) (*Client, error) {
	if len(fleet) == 0 {
		return nil, errors.New("resilient: fleet must list at least one replica URL")
	}
	c := &Client{
		policy:    opts.Policy.withDefaults(),
		transport: opts.Transport,
		rec:       opts.Recorder,
		now:       time.Now,
		sleep:     Sleep,
		afterFn:   after,
		rng:       rand.Float64,
	}
	if c.transport == nil {
		c.transport = http.DefaultTransport
	}
	for _, raw := range fleet {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("resilient: replica URL %q: %w", raw, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("resilient: replica URL %q must be absolute (scheme://host)", raw)
		}
		c.replicas = append(c.replicas, &replica{base: u, baseStr: strings.TrimRight(u.String(), "/")})
	}
	return c, nil
}

// Sleep waits d or until ctx is done, returning the context error when
// interrupted (or when ctx is already done and d <= 0).
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func after(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Backoff is the repository's one retry schedule: exponential backoff with
// full jitter. The k-th (1-based) retry waits u·min(limit, base·2^(k−1))
// for a uniform draw u in [0, 1), so retries that failed together spread
// out instead of re-colliding. base must be positive.
func Backoff(base, limit time.Duration, k int, u float64) time.Duration {
	d := base
	for i := 1; i < k && d < limit; i++ {
		d *= 2
	}
	if d > limit || d <= 0 { // d <= 0: the doubling overflowed
		d = limit
	}
	return time.Duration(u * float64(d))
}

// backoff returns the k-th (1-based) retry's full-jitter delay.
func (c *Client) backoff(k int) time.Duration {
	return Backoff(c.policy.BaseBackoff, c.policy.MaxBackoff, k, c.rng())
}

// parseRetryAfter reads a Retry-After header as either delta-seconds or an
// HTTP date; 0 means absent or unusable.
func parseRetryAfter(h http.Header, now time.Time) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// retryable reports whether a response status is worth another attempt:
// 5xx (replica trouble) and 429 (shed — the fleet asked us to come back).
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// failure reports whether a response status counts against a replica's
// breaker. 429 does not: a shedding server is alive and protecting itself,
// and opening its breaker would turn backpressure into an outage.
func failure(status int) bool {
	return status >= 500
}

// Do sends one logical request to the fleet and returns the first usable
// response, retrying per the policy. A non-retryable status (2xx, 3xx,
// 4xx except 429) returns immediately with err nil — HTTP-level failure is
// the caller's to interpret. When attempts run out, the last HTTP response
// (if any) is returned with err nil, else the last transport error. A
// canceled ctx always wins: the return is (nil, ctx.Err()).
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*Response, error) {
	if c.rec != nil {
		c.rec.Add(obs.MetricResilientRequests, 1)
	}
	var (
		lastErr    error
		lastResp   *Response
		retryAfter time.Duration
	)
	for attempt := 1; attempt <= c.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			d := c.backoff(attempt - 1)
			if retryAfter > 0 {
				if retryAfter > c.policy.MaxBackoff {
					retryAfter = c.policy.MaxBackoff
				}
				if retryAfter > d {
					d = retryAfter
				}
				if c.rec != nil {
					c.rec.Add(obs.MetricResilientRetryAfter, 1)
				}
				retryAfter = 0
			}
			if err := c.sleep(ctx, d); err != nil {
				return nil, err
			}
			if c.rec != nil {
				c.rec.Add(obs.MetricResilientRetries, 1)
			}
		}
		rep, probe := c.pick()
		if rep == nil {
			lastErr = fmt.Errorf("%w (%d replicas)", ErrAllBreakersOpen, len(c.replicas))
			continue // backoff, then re-check: a cooldown may have elapsed
		}
		res, err := c.attempt(ctx, rep, probe, method, path, body)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			lastErr = err
			continue
		}
		res.Attempt = attempt
		if !retryable(res.Status) {
			return res, nil
		}
		lastResp = res
		retryAfter = parseRetryAfter(res.Header, c.now())
	}
	if lastResp != nil {
		return lastResp, nil
	}
	return nil, lastErr
}

// DoJSON marshals reqBody (unless nil), Does, and unmarshals a 2xx reply
// into respBody (unless nil). Non-2xx final responses return *StatusError
// alongside the response.
func (c *Client) DoJSON(ctx context.Context, method, path string, reqBody, respBody any) (*Response, error) {
	var payload []byte
	if reqBody != nil {
		var err error
		if payload, err = json.Marshal(reqBody); err != nil {
			return nil, fmt.Errorf("resilient: encoding request: %w", err)
		}
	}
	res, err := c.Do(ctx, method, path, payload)
	if err != nil {
		return nil, err
	}
	if res.Status < 200 || res.Status > 299 {
		return res, &StatusError{Status: res.Status, Body: res.Body, Replica: res.Replica}
	}
	if respBody != nil {
		if err := json.Unmarshal(res.Body, respBody); err != nil {
			return res, fmt.Errorf("resilient: decoding %s reply: %w", res.Replica, err)
		}
	}
	return res, nil
}

// pick returns the next replica in rotation whose breaker admits a
// request, preferring closed breakers and falling back to a half-open
// probe; nil when every breaker is open.
func (c *Client) pick() (*replica, bool) {
	n := len(c.replicas)
	start := int(c.next.Add(1)-1) % n
	now := c.now()
	for i := 0; i < n; i++ {
		r := c.replicas[(start+i)%n]
		if ok, probe := r.b.allow(now, c.policy.BreakerCooldown); ok {
			if probe && c.rec != nil {
				c.rec.Add(obs.MetricResilientBreakerProbes, 1)
			}
			return r, probe
		}
	}
	if c.rec != nil {
		c.rec.Add(obs.MetricResilientBreakerFastFail, 1)
	}
	return nil, false
}

// pickHedge returns a second, distinct replica whose breaker is fully
// closed (a half-open breaker's single probe slot is never spent on a
// hedge), or nil.
func (c *Client) pickHedge(primary *replica) *replica {
	n := len(c.replicas)
	start := int(c.next.Add(1)-1) % n
	for i := 0; i < n; i++ {
		r := c.replicas[(start+i)%n]
		if r != primary && r.b.closed() {
			return r
		}
	}
	return nil
}

// settle applies one attempt's outcome to a replica's breaker. Outcomes of
// requests we canceled ourselves (hedge losers) are discounted: the
// replica wasn't given a chance to answer.
func (c *Client) settle(rep *replica, res *Response, err error, canceled bool) {
	if canceled {
		rep.b.cancelProbe()
		return
	}
	success := err == nil && !failure(res.Status)
	if rep.b.record(success, c.policy.BreakerFailures, c.now()) && c.rec != nil {
		c.rec.Add(obs.MetricResilientBreakerOpens, 1)
	}
}

// attempt performs one try, hedging to a second replica if the primary is
// slow and the policy allows. probe marks a half-open breaker's test
// request, which is deliberately a single unhedged trial.
func (c *Client) attempt(ctx context.Context, rep *replica, probe bool, method, path string, body []byte) (*Response, error) {
	hedge := c.policy.HedgeAfter
	if probe || hedge <= 0 || len(c.replicas) < 2 {
		res, err := c.roundTrip(ctx, rep, method, path, body)
		c.settle(rep, res, err, err != nil && ctx.Err() != nil)
		return res, err
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		rep *replica
		res *Response
		err error
	}
	ch := make(chan outcome, 2) // buffered: a late loser must never leak its goroutine
	launch := func(r *replica) {
		go func() {
			res, err := c.roundTrip(cctx, r, method, path, body)
			ch <- outcome{rep: r, res: res, err: err}
		}()
	}
	launch(rep)
	inFlight := 1
	timer, stop := c.afterFn(hedge)
	defer stop()
	var hedged *replica
	for {
		select {
		case o := <-ch:
			inFlight--
			won := o.err == nil && !failure(o.res.Status)
			// A loser we cancel never reaches this receive (we return on the
			// win and its outcome lands in the buffered channel unread), so
			// every settled outcome here is the replica's own doing — except
			// a caller-level cancel, which carries no verdict.
			c.settle(o.rep, o.res, o.err, o.err != nil && ctx.Err() != nil)
			if won {
				cancel() // release the loser immediately
				if o.rep == hedged {
					o.res.Hedged = true
					if c.rec != nil {
						c.rec.Add(obs.MetricResilientHedgeWins, 1)
					}
				}
				return o.res, nil
			}
			if inFlight == 0 {
				return o.res, o.err
			}
		case <-timer:
			if h := c.pickHedge(rep); h != nil {
				hedged = h
				launch(h)
				inFlight++
				if c.rec != nil {
					c.rec.Add(obs.MetricResilientHedges, 1)
				}
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// roundTrip sends one HTTP request to one replica and reads the body.
func (c *Client) roundTrip(ctx context.Context, rep *replica, method, path string, body []byte) (*Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.baseStr+path, rd)
	if err != nil {
		return nil, fmt.Errorf("resilient: building request for %s: %w", rep.baseStr, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := c.now()
	hres, err := c.transport.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("resilient: %s: %w", rep.baseStr, err)
	}
	defer hres.Body.Close()
	b, err := io.ReadAll(io.LimitReader(hres.Body, c.policy.MaxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("resilient: reading %s reply: %w", rep.baseStr, err)
	}
	if int64(len(b)) > c.policy.MaxBodyBytes {
		return nil, fmt.Errorf("resilient: %s reply exceeds %d-byte body cap", rep.baseStr, c.policy.MaxBodyBytes)
	}
	if c.rec != nil {
		c.rec.Observe(obs.MetricResilientRequestSeconds, c.now().Sub(start).Seconds())
	}
	return &Response{
		Status:  hres.StatusCode,
		Header:  hres.Header,
		Body:    b,
		Replica: rep.baseStr,
	}, nil
}
