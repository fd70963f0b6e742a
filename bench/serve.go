package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"lrd"
	"lrd/internal/api"
	"lrd/internal/core"
	"lrd/internal/source"
)

// lrdserve is one running server process.
type lrdserve struct {
	cmd    *exec.Cmd
	base   string
	log    *logTail
	exited chan struct{}
	once   sync.Once
}

// logTail collects the server's stderr: it reports the announced listen
// address once and keeps the last few KiB for error messages.
type logTail struct {
	mu      sync.Mutex
	addr    chan string
	sent    bool
	pending []byte
	tail    []byte
}

var addrRe = regexp.MustCompile(`addr=(\S+)`)

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.sent {
		l.pending = append(l.pending, p...)
		if i := bytes.LastIndexByte(l.pending, '\n'); i >= 0 {
			if m := addrRe.FindSubmatch(l.pending[:i]); m != nil {
				l.addr <- string(m[1])
				l.sent, l.pending = true, nil
			}
		}
	}
	l.tail = append(l.tail, p...)
	if n := len(l.tail); n > 4096 {
		l.tail = append(l.tail[:0], l.tail[n-4096:]...)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.tail)
}

// buildServer builds cmd/lrdserve from the checkout's sources; an
// up-to-date binary makes this a no-op.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "lrdserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lrdserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lrdserve: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer launches lrdserve at its default flags on a free loopback
// port with a fresh journal, and waits until /readyz answers 200.
func startServer(bin, journal string) (*lrdserve, error) {
	s := &lrdserve{log: &logTail{addr: make(chan string, 1)}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-journal", journal)
	s.cmd.Stderr = s.log
	// Should this process die without stopping the server, the kernel
	// kills the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is judged by stop
		close(s.exited)
	}()
	select {
	case a := <-s.log.addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, fmt.Errorf("lrdserve exited at start:\n%s", s.log)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("lrdserve announced no listen address within 30 s")
	}
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("lrdserve not ready within 30 s:\n%s", s.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the server, lets it drain, and waits for it to exit.
// Safe to call more than once.
func (s *lrdserve) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(os.Interrupt) // an already-exited server is fine
		select {
		case <-s.exited:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// post sends one request body and returns the status, cache disposition
// and reply.
func post(c *http.Client, url string, body []byte) (int, string, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Lrd-Cache"), raw, err
}

// fleetBody is the POST /v1/solve body lrdsweep -fleet sends for a sweep
// cell (cmd/lrdsweep/remote.go): the reference source's exact parameters
// — alpha and theta rather than Hurst and epoch, the marginal in shortest
// round-trippable form — so the server rebuilds bit-identical inputs.
func fleetBody(c core.RemoteCell) []byte {
	req := api.SolveRequest{
		Marginal: source.FormatMarginal(c.Ref.Marginal),
		Alpha:    c.Ref.Interarrival.Alpha,
		Theta:    c.Ref.Interarrival.Theta,
		Util:     c.Util,
		Buffer:   c.NormalizedBuffer,
		Model:    c.Model,
		Solver:   api.SolverParams{RelGap: c.Config.RelGap, MaxBins: c.Config.MaxBins},
	}
	// The wire encoding reads 0 as "no cutoff".
	if !math.IsInf(c.Ref.Interarrival.Cutoff, 1) {
		req.Cutoff = c.Ref.Interarrival.Cutoff
	}
	raw, _ := json.Marshal(req) // strings, numbers and a spec of strings always encode
	return raw
}

// checkReply checks one reply of the replay: a 200 that solved a body the
// server had never seen, with an answer that decodes.
func checkReply(status int, disposition string, raw []byte) (api.SolveResponse, error) {
	var r api.SolveResponse
	if status != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", status, raw)
	}
	if disposition != "miss" {
		return r, fmt.Errorf("never-seen body answered %q, want miss", disposition)
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("undecodable reply: %v", err)
	}
	return r, nil
}

// checkHit checks a repeated request's reply: a cache hit, byte-equal to
// the reply the same body got the first time.
func checkHit(disposition string, got, first []byte) error {
	if disposition != "hit" {
		return fmt.Errorf("repeated body answered %q, want hit", disposition)
	}
	if !bytes.Equal(got, first) {
		return fmt.Errorf("hit body differs from the first reply (%d vs %d bytes)", len(got), len(first))
	}
	return nil
}

// checkIdentical checks served cells against local solves of the same
// cells: the served answer must be the local answer, bit for bit.
func checkIdentical(served, local []cell) []string {
	if len(served) != len(local) {
		return []string{fmt.Sprintf("%d served cells against %d local ones", len(served), len(local))}
	}
	var bad []string
	for i, s := range served {
		l := local[i]
		if s.Loss != l.Loss || s.Lower != l.Lower || s.Upper != l.Upper || s.Converged != l.Converged {
			bad = append(bad, fmt.Sprintf("cell (b=%g, tc=%g) served %g [%g, %g], local %g [%g, %g]",
				s.Buffer, s.Cutoff, s.Loss, s.Lower, s.Upper, l.Loss, l.Lower, l.Upper))
		}
	}
	return bad
}

// promSnapshot is the part of GET /metrics?format=json the benchmark reads.
type promSnapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func scrapeJSON(c *http.Client, base string) (promSnapshot, error) {
	var s promSnapshot
	resp, err := c.Get(base + "/metrics?format=json")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// fleetRequest is one request of the replay as the client saw it. A
// failed request has no reply and counts as missing any latency limit:
// its latency is recorded as the client's timeout.
type fleetRequest struct {
	body, reply []byte
	start       time.Time
	ms          float64
}

// fleetClient is the sweep's remote solver: each cell becomes one POST
// /v1/solve, timed and checked, on the sweep worker's goroutine — one
// closed-loop caller per worker, each waiting for its reply.
type fleetClient struct {
	http *http.Client
	url  string
	mu   sync.Mutex
	reqs []fleetRequest
}

func (f *fleetClient) solve(_ context.Context, c core.RemoteCell) (core.Point, error) {
	body := fleetBody(c)
	t0 := time.Now()
	status, disp, raw, err := post(f.http, f.url, body)
	req := fleetRequest{body: body, reply: raw, start: t0, ms: time.Since(t0).Seconds() * 1e3}
	var r api.SolveResponse
	if err == nil {
		r, err = checkReply(status, disp, raw)
	}
	if err != nil {
		req.reply, req.ms = nil, f.http.Timeout.Seconds()*1e3
	}
	f.mu.Lock()
	f.reqs = append(f.reqs, req)
	f.mu.Unlock()
	if err != nil {
		return core.Point{}, fmt.Errorf("POST /v1/solve: %w", err)
	}
	return core.Point{
		NormalizedBuffer: c.NormalizedBuffer, Cutoff: c.Ref.Interarrival.Cutoff, Scale: 1, Streams: 1,
		Loss: r.Loss, Lower: r.Lower, Upper: r.Upper, Converged: r.Converged, Degraded: lrd.DegradeReason(r.Degraded),
	}, nil
}

// serveRows is how many rows of the Fig. 4 grid, from the smallest buffer
// up, the serve probe replays: 60 cells of at most 0.35 s of buffering,
// which a server answers in about a second.
const serveRows = 6

// serveProbe measures the serving layer for the per-layer ledger. It
// builds cmd/lrdserve, starts it at its default flags with a fresh journal
// and replays, from one closed-loop caller per CPU, the POST /v1/solve
// requests lrdsweep -fleet sends for the first serveRows rows of the
// Fig. 4 grid on the run's first trace: every body new, so every request a
// cache miss. Then it sends every body again (each must be a hit with the
// first reply's bytes) and pairs of identical new bodies at once (one of
// each pair must be coalesced), and scrapes /metrics throughout.
func serveProbe(j *job) error {
	bin, err := buildServer(j.root)
	if err != nil {
		return err
	}
	buffers, cutoffs := fig4Grid(j.smoke)
	if !j.smoke {
		buffers = buffers[:serveRows]
	}
	refs, err := loadReferences(j.root)
	if err != nil {
		return err
	}
	trace := traceSeed(j.seed, 0)
	tm, err := lrd.MTVModel(trace)
	if err != nil {
		return err
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	srv, err := startServer(bin, filepath.Join(j.tmp, "serve.journal"))
	if err != nil {
		return err
	}
	defer srv.stop()
	url := srv.base + "/v1/solve"

	// One untimed warm-up solve whose body the probes below never send.
	if status, _, raw, err := post(client, url, coalesceBody(0)); err != nil || status != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d, %v: %s", status, err, raw)
	}
	before, err := scrapeJSON(client, srv.base)
	if err != nil {
		return err
	}
	scrapes := startScraper(client, srv.base)
	defer scrapes.stop()
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	resetPeakRSS(pid)
	fleet := &fleetClient{http: client, url: url}
	sc := lrd.SweepConfig{Remote: fleet.solve, Workers: runtime.NumCPU()}
	pts, err := lrd.LossVsBufferAndCutoff(context.Background(), tm, fig4Util, buffers, cutoffs, sc)
	sent := fleet.reqs // the sweep has returned, so every caller is done
	j.res.Attempted += len(sent)
	if err != nil {
		j.fail("replay: %v", err)
	} else {
		served := cellsOf(pts)
		bad := checkSweep(served, len(buffers), len(cutoffs))
		bad = append(bad, checkOverlap(served, len(cutoffs), refs[trace])...)
		// The served answers must be what this process computes locally for
		// the same cells, bit for bit.
		local, err := runSweepPass(tm, buffers, cutoffs, lrd.SolverConfig{}, filepath.Join(j.tmp, "local.journal"))
		if err != nil {
			return fmt.Errorf("local check sweep: %w", err)
		}
		bad = append(bad, checkIdentical(served, local.cells)...)
		for _, msg := range bad {
			j.fail("replay: %s", msg)
		}
	}
	serverRSS := peakRSSMB(pid)
	after, err := scrapeJSON(client, srv.base)
	if err != nil {
		return err
	}

	var missMs, hitMs []float64
	for _, r := range sent {
		missMs = append(missMs, r.ms)
		if r.reply == nil {
			continue // failed, and counted as such already
		}
		t0 := time.Now()
		status, disp, raw, err := post(client, url, r.body)
		hitMs = append(hitMs, time.Since(t0).Seconds()*1e3)
		j.res.Attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, raw)
		}
		if err == nil {
			err = checkHit(disp, raw, r.reply)
		}
		if err != nil {
			j.fail("hit probe: %v", err)
		}
	}
	pairs := 20
	if j.smoke {
		pairs = 2
	}
	coalescedMs, probes, errs := coalescedProbe(client, url, pairs)
	j.res.Attempted += probes
	for _, err := range errs {
		j.fail("coalescing probe: %v", err)
	}
	scrapeMs := scrapes.stop()
	for _, ms := range scrapeMs {
		if math.IsNaN(ms) {
			j.fail("GET /metrics failed under load")
		}
	}
	final, err := scrapeJSON(client, srv.base)
	if err != nil {
		return err
	}
	// Every miss that did not wait on an identical in-flight request is
	// exactly one solve; more would mean the cache or singleflight leaks.
	solves := final.Counters["solver_solves_total"]
	misses := final.Counters["serve_cache_misses_total"] - final.Counters["serve_coalesced_total"]
	if solves != misses {
		j.fail("server ran %g solves for %g uncoalesced misses", solves, misses)
	}

	dh := after.Histograms["serve_request_seconds"]
	bh := before.Histograms["serve_request_seconds"]
	serverMs := (dh.Sum - bh.Sum) / (dh.Count - bh.Count) * 1e3
	j.layer("serve.miss_ms.p50", quantile(missMs, 0.5))
	j.layer("serve.miss_ms.p90", quantile(missMs, 0.9))
	j.layer("serve.hit_ms.p50", quantile(hitMs, 0.5))
	j.layer("serve.hit_ms.p90", quantile(hitMs, 0.9))
	j.layer("serve.coalesced_ms.p50", quantile(coalescedMs, 0.5))
	j.layer("serve.solves_per_miss", solves/misses)
	j.layer("serve.server_ms.mean", serverMs)
	j.layer("serve.transport_residual_ms", mean(missMs)-serverMs)
	j.layer("obs.scrape_ms.p50", quantile(scrapeMs, 0.5))
	j.layer("serve.server_peak_rss_mb", serverRSS)
	j.res.Residuals = append(j.res.Residuals, residualRow{
		Parent: "request (client)", Children: "serve_request_seconds (server)", N: len(missMs),
		ParentS: sumOf(missMs) / 1e3, ChildS: serverMs * float64(len(missMs)) / 1e3,
		SelfS: (mean(missMs) - serverMs) * float64(len(missMs)) / 1e3, Share: (mean(missMs) - serverMs) / mean(missMs),
	})
	return nil
}

// scraper times GET /metrics at once and then every scrapeEvery while the
// probes run, on a connection of its own; a failed scrape is recorded as
// NaN.
const scrapeEvery = 200 * time.Millisecond

type scraper struct {
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	ms   []float64
}

func startScraper(c *http.Client, base string) *scraper {
	s := &scraper{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for first := true; ; first = false {
			if !first {
				select {
				case <-s.done:
					return
				case <-t.C:
				}
			}
			t0 := time.Now()
			ms := math.NaN()
			resp, err := c.Get(base + "/metrics")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK {
					ms = time.Since(t0).Seconds() * 1e3
				}
			}
			s.ms = append(s.ms, ms)
		}
	}()
	return s
}

// stop ends the scrapes, waits for the last, and returns their times in
// ms. Safe to call more than once.
func (s *scraper) stop() []float64 {
	s.once.Do(func() {
		close(s.done)
		s.wg.Wait()
	})
	return s.ms
}

// coalesceBody is a never-seen solve of about 25 ms, long enough that two
// identical requests sent at once overlap on the server: the on/off
// marginal at H 0.9, a 50 ms mean epoch, a 50 s cutoff, 90% utilization and
// one second of buffering, its buffer scaled by 1 + k·1e-7 to make it new.
func coalesceBody(k int) []byte {
	raw, _ := json.Marshal(api.SolveRequest{
		Marginal: "0:0.5,2:0.5", Hurst: 0.9, Epoch: 0.05, Cutoff: 50, Util: 0.9,
		Buffer: 1 + float64(k)*1e-7,
	})
	return raw
}

// coalescedProbe sends pairs of identical never-seen bodies at the same
// moment; the request that waits on its twin's solve is answered
// "coalesced". It returns those replies' latencies, the requests sent and
// the failed ones' errors, and stops after the given number of coalesced
// replies or three times as many pairs.
func coalescedProbe(c *http.Client, url string, pairs int) ([]float64, int, []error) {
	type reply struct {
		disp string
		ms   float64
		err  error
	}
	var out []float64
	var errs []error
	sent := 0
	for p := 0; p < 3*pairs && len(out) < pairs; p++ {
		body := coalesceBody(p + 1)
		release := make(chan struct{})
		replies := make(chan reply, 2)
		for i := 0; i < 2; i++ {
			go func() {
				<-release
				t0 := time.Now()
				status, disp, raw, err := post(c, url, body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, raw)
				}
				replies <- reply{disp, time.Since(t0).Seconds() * 1e3, err}
			}()
		}
		close(release)
		sent += 2
		for i := 0; i < 2; i++ {
			switch r := <-replies; {
			case r.err != nil:
				errs = append(errs, r.err)
			case r.disp == "coalesced":
				out = append(out, r.ms)
			}
		}
	}
	return out, sent, errs
}
