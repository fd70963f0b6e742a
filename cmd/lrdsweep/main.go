// Command lrdsweep runs one named experiment from the paper's evaluation
// and prints its rows as TSV. Experiment ids match the paper's figures
// (fig2 … fig14) plus the extension experiments (hurst, markov, arqfec,
// eq26); run with -list to enumerate them.
//
// The sweep degrades gracefully rather than discarding work: on SIGINT, or
// when the -timeout budget expires, the run is canceled, every completed
// row is still printed (followed by a "# interrupted" trailer), and the
// command exits nonzero. -point-timeout caps the wall-clock budget of each
// individual solver cell; cells that hit it are reported with their
// best-so-far loss bounds and a nonempty "degraded" column.
//
// Crash safety: with -journal every completed sweep cell is checkpointed
// to an append-only fsync'd JSONL journal, and -resume replays it so an
// interrupted (or crashed) sweep continues from its last durable cell —
// the resumed output is byte-identical to an uninterrupted run. -retries
// re-runs cells that failed or degraded for transient reasons (deadline,
// cancellation, numeric-watchdog trips) with exponential backoff
// (-retry-backoff). -out writes the TSV atomically (write-temp-then-
// rename), so a crash never leaves a torn result file.
//
// Distributed sweeps: -worker-id joins the -journal as one member of a
// coordinator-free worker fleet. Each cell is leased (claimed with a
// fencing epoch and a -lease-ttl deadline) before it is solved, so N
// processes sharing one journal partition the grid dynamically: a worker
// that crashes or stalls simply stops renewing its leases and its cells
// are re-leased by the survivors, while a zombie that wakes up late loses
// the fencing race and can never overwrite a newer result. Every worker
// writes the same complete TSV at the end (cells solved by peers are
// adopted from the journal), byte-identical to a single-process run.
// -workers caps the in-process solver pool so a fleet's total matches the
// machine.
//
// Remote solving: -fleet offloads each cell's numeric work to lrdserve
// replicas through the resilient fleet client — exponential backoff with
// jitter (-attempts), per-replica circuit breakers (-breaker-fails,
// -breaker-cooldown), and optional request hedging (-hedge-after).
// Journaling, leasing, and retries still run locally, so -journal/-resume
// and the output bytes behave exactly as in a local run.
//
// Warm starts: -warm chains cross-cell warm starts up each buffer column
// of the buffer×cutoff experiments: a cell's bound iteration starts from
// its smaller-buffer neighbor's solved occupancy vectors, skipping the
// coarse resolution ladder. The loss bounds remain valid at every
// iteration, but they land elsewhere inside the bracket than a cold
// solve's, so warm journals are namespaced (warm=1) and warm TSVs differ
// from cold ones in the bounds' low-order digits.
//
// Journal maintenance: -compact rewrites the -journal to one record per key
// (atomic replace) and exits. It may not run while live workers share the
// journal.
//
// Traffic models: -model selects the registered source model the sweep's
// cells are realized as (fluid, onoff, markov, mmfq, ams — see internal/source);
// -model-params passes key=value model parameters. A comma-separated
// -model list runs the experiment once per model and stacks the tables
// under a leading "model" column for side-by-side comparison. Journal keys
// are namespaced by model, so journals never replay across models.
//
// Observability flags: -metrics writes a JSON metrics snapshot on exit
// (including interrupted exits), -trace streams per-iteration solver
// convergence points plus correlated spans (cell → lease → solve →
// journal append, all sharing the run's trace id) as JSONL, -progress
// prints a periodic status line to stderr, and -pprof serves
// net/http/pprof, expvar, and a Prometheus /metrics exposition.
//
// Fleet inspection: -status folds the shared -journal into a per-worker
// table (cells claimed/completed, leases stolen/released/renewed, live
// lease TTLs, straggler flags, completion %) and exits without joining
// the sweep; -expect-cells supplies the grid size for a true completion
// percentage. lrdtop is the continuously refreshing version.
//
// Example:
//
//	lrdsweep -exp fig9 -quick                     # fast, shrunken grids
//	lrdsweep -exp fig4 -seed 7 > fig4.tsv
//	lrdsweep -exp fig5 -timeout 2m -point-timeout 5s
//	lrdsweep -exp fig4 -journal fig4.journal -out fig4.tsv
//	lrdsweep -exp fig4 -journal fig4.journal -resume -out fig4.tsv
//	lrdsweep -exp fig4 -quick -model fluid,markov,mmfq -out compare.tsv
//
//	# 4-worker distributed sweep sharing one journal (run concurrently):
//	for i in 1 2 3 4; do
//	  lrdsweep -exp fig4 -journal shared.journal -worker-id w$i -workers 2 -out fig4.w$i.tsv &
//	done; wait   # all four TSVs are byte-identical
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
	"strings"

	"lrd/internal/cliflags"
	"lrd/internal/core"
	"lrd/internal/fft"
	"lrd/internal/fleetstatus"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/solver"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of main: it parses args with its own FlagSet,
// writes the table to stdout (or -out), diagnostics to stderr, and returns
// the exit code instead of calling os.Exit — so deferred cleanup (the
// -metrics snapshot, the journal close) executes on every exit path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list)")
		seed    = fs.Int64("seed", 1, "random seed for trace synthesis and shuffling")
		quick   = fs.Bool("quick", false, "use shrunken grids for a fast run")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		out     = fs.String("out", "", "write the TSV atomically to this file instead of stdout")
		status  = fs.Bool("status", false, "print the journal-derived fleet status table and exit (requires -journal)")
		compact = fs.Bool("compact", false, "compact the -journal to one record per key and exit (no live workers may share it)")
	)
	budget := cliflags.BudgetGroup(fs)
	pointBudget := cliflags.PointBudgetGroup(fs)
	jflags := cliflags.JournalGroup(fs)
	lease := cliflags.LeaseGroup(fs)
	workers := cliflags.WorkersFlag(fs)
	warm := cliflags.WarmFlag(fs)
	retry := cliflags.RetryGroup(fs)
	oflags := cliflags.ObsGroup(fs)
	sflags := cliflags.StatusGroup(fs)
	modelSpecs := cliflags.ModelGroup(fs)
	fleet := cliflags.FleetGroup(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cli, err := obs.StartCLI(oflags.CLIOptions("lrdsweep", stderr))
	if err != nil {
		fmt.Fprintf(stderr, "lrdsweep: %v\n", err)
		return 1
	}
	defer cli.Close()
	logger := obs.NewLogger(stderr, "lrdsweep", cli.Trace())
	warn := obs.NewLogWriter(logger, slog.LevelWarn)

	if *status {
		// One-shot fleet inspection: fold the shared journal and print the
		// per-worker table without joining the sweep (see also lrdtop).
		if *jflags.Path == "" {
			logger.Error("lrdsweep: -status requires -journal")
			return 1
		}
		st, err := fleetstatus.New(*jflags.Path, sflags.Options()).Status()
		if err != nil {
			logger.Error(fmt.Sprintf("lrdsweep: %v", err))
			return 1
		}
		if err := st.WriteText(stdout); err != nil {
			logger.Error(fmt.Sprintf("lrdsweep: %v", err))
			return 1
		}
		return 0
	}

	if *compact {
		// One-shot maintenance: rewrite the journal to one record per key
		// (atomic replace, quarantining damaged lines) and exit. Safe only
		// when no live worker shares the journal — compaction must not race
		// appenders holding the old inode open.
		if *jflags.Path == "" {
			logger.Error("lrdsweep: -compact requires -journal")
			return 1
		}
		cs, err := journal.Compact(*jflags.Path)
		if err != nil {
			logger.Error(fmt.Sprintf("lrdsweep: %v", err))
			return 1
		}
		fmt.Fprintf(stdout, "compacted %s: %d → %d records, %d → %d bytes (%d reclaimed)\n",
			*jflags.Path, cs.RecordsIn, cs.RecordsOut, cs.BytesBefore, cs.BytesAfter, cs.Reclaimed())
		return 0
	}

	if *exp == "" {
		logger.Error("lrdsweep: -exp is required (use -list to enumerate)")
		return 1
	}
	e, err := core.ExperimentByID(*exp)
	if err != nil {
		logger.Error(fmt.Sprintf("lrdsweep: %v", err))
		return 1
	}
	specs, err := modelSpecs()
	if err != nil {
		logger.Error(fmt.Sprintf("lrdsweep: %v", err))
		return 1
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := budget.Context(sigCtx)
	defer cancel()
	// Attach the run's root trace (and the -trace span sink) so every sweep
	// cell, lease operation, solve, and journal append shares one trace id.
	ctx = cli.Context(ctx)

	opts := core.RunOptions{
		Seed: *seed, Quick: *quick,
		Retry: retry.Policy(), Workers: *workers,
		WarmStarts: *warm,
	}
	opts.Solver.MaxDuration = *pointBudget.PointTimeout
	opts.Solver.Recorder = cli.Recorder()
	fft.SetRecorder(cli.Recorder())
	if enc := cli.TraceEncoder(); enc != nil {
		opts.Solver.Trace = func(p solver.TracePoint) { enc(p) }
	}
	// Distributed mode (-worker-id) leases cells from the shared journal;
	// otherwise the journal (if any) is a private single-process checkpoint.
	leases, err := lease.Open("lrdsweep", jflags, cli.Recorder(), warn)
	if err != nil {
		logger.Error(err.Error())
		return 1
	}
	if leases != nil {
		defer leases.Close()
		stopHeartbeat := leases.StartHeartbeat(ctx)
		defer stopHeartbeat()
		opts.Store = leases
	} else {
		store, err := jflags.Open("lrdsweep", cli.Recorder(), warn)
		if err != nil {
			logger.Error(err.Error())
			return 1
		}
		if store != nil {
			defer store.Close()
			opts.Store = store
		}
	}
	// Remote mode (-fleet): the numeric work of each cell moves to lrdserve
	// replicas through the resilient client (retries, circuit breakers,
	// optional hedging); journaling, leasing, and the retry policy still run
	// locally, so crash safety and output identity are unchanged.
	if fleet.Enabled() {
		fc, err := fleet.Client("lrdsweep", cli.Recorder())
		if err != nil {
			logger.Error(fmt.Sprintf("lrdsweep: %v", err))
			return 1
		}
		opts.Remote = remoteSolver(fc)
	}

	// With one model the table is the experiment's own (bit-identical for
	// the default fluid model); with several, the runs are stacked under a
	// leading "model" column so the TSV compares models side by side.
	var table core.Table
	var runErr error
	for _, spec := range specs {
		o := opts
		o.Model = spec
		t, err := e.Run(ctx, o)
		if len(specs) == 1 {
			table = t
		} else {
			if len(table.Header) == 0 && len(t.Header) > 0 {
				table.Header = append([]string{"model"}, t.Header...)
			}
			for _, row := range t.Rows {
				table.Rows = append(table.Rows, append([]string{spec.Key()}, row...))
			}
		}
		if err != nil {
			runErr = err
			break
		}
	}
	interrupted := runErr != nil &&
		(errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if runErr != nil && !interrupted {
		logger.Error(fmt.Sprintf("lrdsweep: %s: %v", e.ID, runErr))
		return 1
	}

	render := func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "# %s: %s\n", e.ID, e.Title); err != nil {
			return err
		}
		if len(table.Header) > 0 {
			if _, err := fmt.Fprintln(w, strings.Join(table.Header, "\t")); err != nil {
				return err
			}
		}
		for _, row := range table.Rows {
			if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
				return err
			}
		}
		if interrupted {
			if _, err := fmt.Fprintf(w, "# interrupted: %v (%d completed rows flushed)\n", runErr, len(table.Rows)); err != nil {
				return err
			}
		}
		return nil
	}
	if *out != "" {
		// Atomic write: a crash (or an interrupted partial table) never
		// replaces a previously complete result file with a torn one.
		if err := journal.WriteFileAtomic(*out, render); err != nil {
			logger.Error(fmt.Sprintf("lrdsweep: %v", err))
			return 1
		}
	} else if err := render(stdout); err != nil {
		logger.Error(fmt.Sprintf("lrdsweep: %v", err))
		return 1
	}
	if interrupted {
		logger.Warn(fmt.Sprintf("lrdsweep: %s interrupted: %v", e.ID, runErr))
		return 1
	}
	return 0
}
