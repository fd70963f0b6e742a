// Command lrdfigs regenerates the data behind every figure of the paper's
// evaluation (and the extension experiments), writing one TSV per
// experiment into an output directory and printing a one-line summary per
// experiment as it completes. Every TSV is written atomically
// (write-temp-then-rename), so a crash never leaves a torn result file.
//
// Crash safety: with -journal every completed sweep cell of every
// experiment is checkpointed to one shared append-only journal (cell keys
// are namespaced by experiment id, seed, and solver configuration), and
// -resume replays it so an interrupted batch continues from its last
// durable cell. -retries re-runs transiently failed or degraded cells
// with exponential backoff (-retry-backoff). -timeout budgets the whole
// batch and -point-timeout each individual solver cell; both degrade
// gracefully (completed rows are kept, the run exits nonzero).
//
// Traffic models: -model realizes every experiment's sources as one
// registered model (fluid, onoff, markov, mmfq, ams — see internal/source) and
// -model-params passes key=value model parameters; the default fluid model
// reproduces the paper's figures bit-identically.
//
// Observability flags: -metrics writes a JSON metrics snapshot on exit,
// -trace streams per-iteration solver convergence points as JSONL,
// -progress prints a periodic status line to stderr, and -pprof serves
// net/http/pprof plus an expvar metrics export.
//
// Example:
//
//	lrdfigs -out results -quick      # fast smoke run
//	lrdfigs -out results             # full paper-scale grids
//	lrdfigs -out results -only fig4,fig5
//	lrdfigs -out results -journal figs.journal -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"lrd/internal/cliflags"
	"lrd/internal/core"
	"lrd/internal/fft"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/solver"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of main: it parses args with its own FlagSet,
// writes summaries to stdout, diagnostics to stderr, and returns the exit
// code instead of calling os.Exit — so deferred cleanup (the -metrics
// snapshot, the journal close) executes on every exit path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out   = fs.String("out", "results", "output directory for the TSV files")
		seed  = fs.Int64("seed", 1, "random seed")
		quick = fs.Bool("quick", false, "use shrunken grids")
		only  = fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	)
	budget := cliflags.BudgetGroup(fs)
	pointBudget := cliflags.PointBudgetGroup(fs)
	jflags := cliflags.JournalGroup(fs)
	retry := cliflags.RetryGroup(fs)
	oflags := cliflags.ObsGroup(fs)
	modelSpecs := cliflags.ModelGroup(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cli, err := obs.StartCLI(oflags.CLIOptions("lrdfigs", stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lrdfigs: %v\n", err)
		return 1
	}
	defer cli.Close()
	logger := obs.NewLogger(stderr, "lrdfigs", cli.Trace())
	warn := obs.NewLogWriter(logger, slog.LevelWarn)

	specs, err := modelSpecs()
	if err != nil {
		logger.Error(fmt.Sprintf("lrdfigs: %v", err))
		return 1
	}
	if len(specs) != 1 {
		logger.Error("lrdfigs: -model takes a single model; use lrdsweep for side-by-side model comparisons")
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		logger.Error(fmt.Sprintf("lrdfigs: %v", err))
		return 1
	}
	var selected map[string]bool
	if *only != "" {
		selected = map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := budget.Context(sigCtx)
	defer cancel()
	// Attach the batch's root trace (and the -trace span sink) so every
	// experiment's cells, solves, and journal appends share one trace id.
	ctx = cli.Context(ctx)
	opts := core.RunOptions{
		Seed: *seed, Quick: *quick, Model: specs[0],
		Retry: retry.Policy(),
	}
	opts.Solver.MaxDuration = *pointBudget.PointTimeout
	opts.Solver.Recorder = cli.Recorder()
	fft.SetRecorder(cli.Recorder())
	if enc := cli.TraceEncoder(); enc != nil {
		opts.Solver.Trace = func(p solver.TracePoint) { enc(p) }
	}
	store, err := jflags.Open("lrdfigs", cli.Recorder(), warn)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}
	if store != nil {
		defer store.Close()
		opts.Store = store
	}

	failures := 0
	for _, e := range core.Experiments() {
		if selected != nil && !selected[e.ID] {
			continue
		}
		if ctx.Err() != nil {
			logger.Warn("lrdfigs: interrupted")
			failures++
			break
		}
		start := time.Now()
		table, err := e.Run(ctx, opts)
		if err != nil && !errors.Is(err, context.Canceled) {
			logger.Error(fmt.Sprintf("lrdfigs: %s FAILED: %v", e.ID, err))
			failures++
			continue
		}
		if err != nil {
			// Interrupted mid-experiment: keep the completed rows on disk,
			// report the run as failed.
			failures++
		}
		path := filepath.Join(*out, e.ID+".tsv")
		if err := writeTSV(path, e, table); err != nil {
			logger.Error(fmt.Sprintf("lrdfigs: %s: %v", e.ID, err))
			failures++
			continue
		}
		fmt.Fprintf(stdout, "%-8s %4d rows  %8s  %s\n", e.ID, len(table.Rows), time.Since(start).Round(time.Millisecond), path)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// writeTSV persists one experiment table atomically: the file appears
// complete or not at all, never torn.
func writeTSV(path string, e core.Experiment, table core.Table) error {
	return journal.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "# %s: %s\n", e.ID, e.Title); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, strings.Join(table.Header, "\t")); err != nil {
			return err
		}
		for _, row := range table.Rows {
			if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
				return err
			}
		}
		return nil
	})
}
