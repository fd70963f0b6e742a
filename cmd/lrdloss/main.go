// Command lrdloss computes the stationary loss rate of a finite-buffer
// fluid queue fed by the cutoff-correlated source of Grossglauser & Bolot
// (SIGCOMM '96) with the library's bounded numerical solver.
//
// The flags are the fields of a POST /v1/solve body (internal/api's
// SolveRequest), checked and built by the same rules lrdserve applies: the
// marginal inline as rate:probability pairs; the correlation structure via
// the Hurst parameter (or tail index), the scale θ (or a mean epoch length
// to calibrate θ from), and the cutoff lag, where -cutoff 0 means
// infinite, as absent does; the queue via the utilization (or service
// rate) and the normalized buffer.
//
// Example — an on/off source at 80 % utilization with 0.5 s of buffering:
//
//	lrdloss -marginal 0:0.5,2:0.5 -hurst 0.8 -epoch 0.05 -cutoff 10 \
//	        -util 0.8 -buffer 0.5
//
// Traffic models: -model realizes the source as one registered model
// (fluid, onoff, markov, mmfq, ams — see internal/source) before solving, and
// -model-params passes key=value model parameters. The flags above always
// describe the reference cutoff-Pareto source that the chosen model is
// fitted to; the default fluid model solves it directly.
//
// The solve is interruptible: on SIGINT or when the -timeout budget
// expires the best-so-far loss bounds are printed (they bracket the true
// loss at every iteration) and the command exits nonzero. -out writes the
// result atomically (write-temp-then-rename) instead of stdout.
//
// Observability flags: -metrics writes a JSON metrics snapshot on exit,
// -trace streams per-iteration convergence points as JSONL, -progress
// prints a periodic status line to stderr, and -pprof serves
// net/http/pprof plus an expvar metrics export.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"

	"lrd/internal/api"
	"lrd/internal/cliflags"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/source"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of main: it parses args with its own FlagSet,
// writes the result to stdout (or -out), diagnostics to stderr, and
// returns the exit code instead of calling os.Exit — so deferred cleanup
// (the -metrics snapshot) executes on every exit path, including
// interrupted solves.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdloss", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		marginalFlag = fs.String("marginal", "", "marginal as rate:prob pairs, e.g. 0:0.5,2:0.5 (required)")
		hurst        = fs.Float64("hurst", 0, "Hurst parameter in (0.5, 1); sets alpha = 3-2H")
		alpha        = fs.Float64("alpha", 0, "Pareto tail index in (1, 2); alternative to -hurst")
		theta        = fs.Float64("theta", 0, "Pareto scale θ in seconds")
		epoch        = fs.Float64("epoch", 0, "mean epoch duration in seconds; calibrates θ when -theta is absent")
		cutoff       = fs.Float64("cutoff", math.Inf(1), "correlation cutoff lag Tc in seconds; 0 means infinite")
		util         = fs.Float64("util", 0, "target utilization in (0, 1); sets the service rate from the marginal mean")
		service      = fs.Float64("service", 0, "service rate c in work units/s; alternative to -util")
		buffer       = fs.Float64("buffer", 0, "normalized buffer size B/c in seconds (required)")
		relGap       = fs.Float64("relgap", 0.2, "bound convergence target (paper: 0.2)")
		maxBins      = fs.Int("maxbins", 0, "resolution cap (default 32768)")
		out          = fs.String("out", "", "write the result atomically to this file instead of stdout")
		verbose      = fs.Bool("v", false, "print solver diagnostics")
	)
	budget := cliflags.BudgetGroup(fs)
	oflags := cliflags.ObsGroup(fs)
	modelSpecs := cliflags.ModelGroup(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cli, err := obs.StartCLI(oflags.CLIOptions("lrdloss", stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lrdloss: %v\n", err)
		return 1
	}
	defer cli.Close()
	logger := obs.NewLogger(stderr, "lrdloss", cli.Trace())

	fail := func(format string, args ...any) int {
		logger.Error(fmt.Sprintf("lrdloss: "+format, args...))
		return 1
	}

	specs, err := modelSpecs()
	if err != nil {
		return fail("%v", err)
	}
	if len(specs) != 1 {
		return fail("-model takes a single model; use lrdsweep for side-by-side model comparisons")
	}
	req := api.SolveRequest{
		Marginal: *marginalFlag, Hurst: *hurst, Alpha: *alpha, Theta: *theta, Epoch: *epoch,
		Cutoff: *cutoff, Util: *util, Service: *service, Buffer: *buffer, Model: specs[0],
	}
	_, src, err := req.Source()
	if err != nil {
		return fail("%v", err)
	}
	mdl, err := req.Queue(src)
	if err != nil {
		return fail("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Attach the run's trace context (and -trace span sink) so the solve's
	// span and trace points share the id on every slog line.
	ctx = cli.Context(ctx)
	cfg := solver.Config{
		RelGap: *relGap, MaxBins: *maxBins, MaxDuration: *budget.Timeout,
		Recorder: cli.Recorder(),
	}
	if enc := cli.TraceEncoder(); enc != nil {
		cfg.Trace = func(p solver.TracePoint) { enc(p) }
	}
	res, err := solver.SolveModelContext(ctx, mdl, cfg)
	if err != nil {
		return fail("%v", err)
	}
	render := func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "loss %.6g\n", res.Loss); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "bounds [%.6g, %.6g]\n", res.Lower, res.Upper); err != nil {
			return err
		}
		if !*verbose {
			return nil
		}
		fmt.Fprintf(w, "source %v\n", src)
		fmt.Fprintf(w, "service %.6g work/s, buffer %.6g work units (%.4g s), utilization %.4g\n",
			mdl.ServiceRate, mdl.Buffer, mdl.NormalizedBuffer(), mdl.Utilization())
		fmt.Fprintf(w, "solver bins %d, iterations %d, converged %v, relative gap %.3g\n",
			res.Bins, res.Iterations, res.Converged, res.RelativeGap())
		if fq, ok := src.(source.FitQuality); ok {
			fmt.Fprintf(w, "model fit sup-norm error %.3g\n", fq.FitMaxError())
		}
		if oracle, ok := src.(source.OverflowOracle); ok {
			if p, oerr := oracle.ExactOverflow(mdl.ServiceRate, mdl.Buffer); oerr == nil {
				fmt.Fprintf(w, "exact overflow Pr{Q > B} %.6g (infinite-buffer upper bound on loss)\n", p)
			}
		}
		return nil
	}
	if *out != "" {
		// Atomic write: a crash never leaves a torn result file.
		if err := journal.WriteFileAtomic(*out, render); err != nil {
			return fail("%v", err)
		}
	} else if err := render(stdout); err != nil {
		return fail("%v", err)
	}
	switch {
	// Retryable reasons are exactly the wall-clock interruptions (SIGINT,
	// -timeout): report them as such instead of string-matching reasons.
	case res.Degraded.Retryable():
		logger.Warn(fmt.Sprintf("lrdloss: interrupted (%s); bounds above still bracket the true loss", res.Degraded))
		return 1
	case res.Degraded != "":
		logger.Warn(fmt.Sprintf("lrdloss: degraded result (%s); bounds above still bracket the true loss", res.Degraded))
	case !res.Converged:
		logger.Warn("lrdloss: warning: bounds did not reach the requested gap; result is the bracket midpoint")
	}
	return 0
}
