// Command lrdserve serves the bounded loss-rate solver over HTTP: the
// paper's workstation computation as a cached, backpressured service.
//
// Endpoints:
//
//	POST /v1/solve         — solve one queue; the body is the lrdloss
//	                         parameter set as JSON (internal/api.SolveRequest)
//	POST /v1/sweep         — solve a buffers × cutoffs grid in one batch
//	                         request (see internal/api.SweepRequest)
//	GET  /metrics          — Prometheus text exposition of the serve and
//	                         solver metrics (?format=json for the JSON
//	                         snapshot)
//	GET  /v1/status        — journal-derived fleet status JSON (requires
//	                         -journal)
//	GET  /healthz          — liveness probe
//	GET  /readyz           — readiness probe: 503 until the cache warm-load
//	                         completes and during graceful drain, 200 between
//
// Identical concurrent requests coalesce onto one solve; repeated requests
// are answered from an LRU cache with bit-identical bytes (the X-Lrd-Cache
// header says hit, miss, or coalesced). At most -max-inflight solves run
// concurrently and at most -max-queue requests wait for a slot; beyond
// that, requests are shed fast with 429 and a Retry-After hint so overload
// never starves the solves already running.
//
// Durability: -journal appends every cache fill to an fsync'd journal and
// -resume warm-loads it on startup, so a restarted server answers its
// known queries from cache immediately.
//
// Fleets: -worker-id turns the -journal into shared state for a replica
// fleet. Each solve first takes a lease on its cache key (-lease-ttl
// bounds how long a crashed replica can strand one), so identical requests
// hitting different replicas are computed once fleet-wide and adopted by
// the others from the journal — the cross-process generalization of the
// in-process request coalescing.
//
// Admission: -rate-limit imposes a per-client token bucket on the /v1/
// endpoints (burst -rate-burst), shedding excess with 429 and a
// queue-depth-aware Retry-After; probes and /metrics are never throttled.
//
// On SIGINT/SIGTERM (or when the -timeout budget expires) the server first
// flips /readyz to 503 and waits -drain-grace so load balancers reroute,
// then stops accepting connections, drains in-flight solves for up to
// -drain, and exits 0.
//
// Example:
//
//	lrdserve -addr localhost:8080 -journal serve.journal -resume &
//	curl -s localhost:8080/v1/solve -d \
//	  '{"marginal":"0:0.5,2:0.5","hurst":0.8,"epoch":0.05,"cutoff":10,"util":0.8,"buffer":0.5}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lrd/internal/cliflags"
	"lrd/internal/fleetstatus"
	"lrd/internal/obs"
	"lrd/internal/serve"
	"lrd/internal/solver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args with its own FlagSet,
// serves until ctx is canceled (main wires SIGINT/SIGTERM), and returns the
// exit code instead of calling os.Exit — so deferred cleanup (the -metrics
// snapshot, the journal close) executes on every exit path. The actual
// listen address is announced on stderr, so -addr 127.0.0.1:0 is usable.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
		maxInflight = fs.Int("max-inflight", 4, "maximum concurrent solves")
		maxQueue    = fs.Int("max-queue", 16, "maximum requests waiting for a solve slot before shedding with 429")
		cacheSize   = fs.Int("cache", 1024, "solve cache capacity in entries (negative disables)")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request solve budget cap (0 = none)")
		relGap      = fs.Float64("relgap", 0.2, "default bound convergence target (paper: 0.2)")
		maxBins     = fs.Int("maxbins", 0, "default resolution cap (default 32768)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for draining in-flight solves")
		drainGrace  = fs.Duration("drain-grace", 0, "pause between flipping /readyz to draining and closing the listener, giving load balancers time to reroute")
		rateLimit   = fs.Float64("rate-limit", 0, "per-client request rate on /v1/ endpoints in req/s (0 = unlimited)")
		rateBurst   = fs.Int("rate-burst", 0, "per-client burst capacity for -rate-limit (default 2x the rate)")
	)
	budget := cliflags.BudgetGroup(fs)
	jflags := cliflags.JournalGroup(fs)
	lease := cliflags.LeaseGroup(fs)
	oflags := cliflags.ObsGroup(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cli, err := obs.StartCLI(oflags.CLIOptions("lrdserve", stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lrdserve: %v\n", err)
		return 1
	}
	defer cli.Close()

	// All diagnostics from here down are slog records. Lifecycle messages
	// carry the server's root trace id; the serving layer gets a logger
	// without it, so each request line carries exactly one trace attr —
	// the request's own.
	logger := obs.NewLogger(stderr, "lrdserve", cli.Trace())
	reqLogger := obs.NewLogger(stderr, "lrdserve", obs.TraceContext{})
	warn := obs.NewLogWriter(logger, slog.LevelWarn)

	cfg := serve.Config{
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		CacheSize:      *cacheSize,
		RequestTimeout: *reqTimeout,
		Solver:         solver.Config{RelGap: *relGap, MaxBins: *maxBins},
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		Registry:       cli.Registry(), // /metrics and the -metrics snapshot share one registry
		SpanSink:       cli.SpanSink(), // -trace: request/lease/solve/append spans as JSONL
		Logger:         reqLogger,
	}
	if enc := cli.TraceEncoder(); enc != nil {
		cfg.Solver.Trace = func(p solver.TracePoint) { enc(p) }
	}
	if *jflags.Path != "" {
		// The journal doubles as the fleet-status source: /v1/status folds
		// it into per-worker progress.
		cfg.Status = fleetstatus.New(*jflags.Path, fleetstatus.Options{})
	}
	// Fleet mode (-worker-id) shares the journal through the lease store,
	// which coordinates solves across the replicas on it; otherwise the
	// journal (if any) is this replica's private cache log. The nil checks
	// before the interface assignments matter: a nil *JournalStore stuffed
	// into the CacheJournal interface would not compare equal to nil inside
	// serve.
	leases, err := lease.Open("lrdserve", jflags, cli.Recorder(), warn)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}
	if leases != nil {
		defer leases.Close()
		stopHeartbeat := leases.StartHeartbeat(ctx)
		defer stopHeartbeat()
		cfg.Journal = leases
	} else {
		store, err := jflags.Open("lrdserve", cli.Recorder(), warn)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
		if store != nil {
			defer store.Close()
			cfg.Journal = store
		}
	}

	srv := serve.New(cfg)

	tcp, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error(fmt.Sprintf("lrdserve: %v", err))
		return 1
	}
	ln := &drainListener{TCPListener: tcp.(*net.TCPListener)}
	logger.Info(fmt.Sprintf("listening on http://%s", ln.Addr()), "addr", ln.Addr().String())
	// The cache warm-load happened inside serve.New, so by the time the
	// listener exists the replica genuinely is ready.
	srv.MarkReady()

	// -timeout bounds the server's lifetime on top of the signal context —
	// handy for smoke tests and batch warm-ups.
	ctx, cancel := budget.Context(ctx)
	defer cancel()

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		logger.Error(fmt.Sprintf("lrdserve: %v", err))
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown, in load-balancer-safe order: first flip /readyz to
	// draining so new work routes elsewhere, hold the listener open for the
	// -drain-grace window (requests already routed here still connect and
	// complete — no resets), then stop accepting — answering what the
	// kernel already queued with 503 draining before the socket closes —
	// and finish what's running. A solve that outlives the -drain budget is
	// abandoned and the exit is dirty.
	srv.StartDrain()
	logger.Info("draining: /readyz now 503", "grace", drainGrace.String())
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	ln.stopServing()
	if err := <-errc; err != nil && !errors.Is(err, net.ErrClosed) {
		logger.Error(fmt.Sprintf("lrdserve: %v", err))
		return 1
	}
	if err := ln.drainQueue(); err != nil {
		logger.Error(fmt.Sprintf("lrdserve: closing the listener: %v", err))
		return 1
	}
	logger.Info("shutting down; draining in-flight solves")
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drain)
	defer drainCancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		logger.Error(fmt.Sprintf("lrdserve: drain: %v", err))
		return 1
	}
	fmt.Fprintln(stdout, "lrdserve: drained cleanly")
	return 0
}
