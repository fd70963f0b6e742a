// Command lrdtop watches a distributed sweep fleet live. It tails the
// fleet's shared work journal (the same file every lrdsweep -worker-id
// process appends to) and periodically re-renders the journal-derived
// status table: per-worker cells claimed/completed, leases
// stolen/released/renewed, live lease TTLs, straggler flags, and the
// grid completion percentage. It never writes the journal and needs no
// cooperation from the workers — the lease protocol already records
// every claim, renewal, release, and completion as a journal line.
//
// -once prints a single snapshot and exits (for scripts and cron);
// otherwise lrdtop refreshes every -interval until interrupted, or until
// the sweep completes when -expect-cells is given.
//
// Example — watch a 4-worker fig4 fleet:
//
//	lrdtop -journal shared.journal -expect-cells 12 -interval 1s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"lrd/internal/fleetstatus"
	"lrd/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args with its own FlagSet,
// renders status tables to stdout and diagnostics to stderr, and returns
// the exit code instead of calling os.Exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrdtop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jpath    = fs.String("journal", "", "the fleet's shared work journal to watch (required)")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval between status tables")
		once     = fs.Bool("once", false, "print one status table and exit")
		expect   = fs.Int("expect-cells", 0, "expected total grid cells, for a true completion percentage in fleet status (0 = unknown)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := obs.NewLogger(stderr, "lrdtop", obs.NewTrace())
	if *jpath == "" {
		logger.Error("lrdtop: -journal is required (the fleet's shared work journal)")
		return 1
	}

	// One Aggregator across refreshes: each tick folds only the journal
	// bytes appended since the previous one.
	agg := fleetstatus.New(*jpath, fleetstatus.Options{ExpectedCells: *expect})
	render := func() (fleetstatus.Status, bool) {
		st, err := agg.Status()
		if err != nil {
			logger.Error(fmt.Sprintf("lrdtop: %v", err))
			return st, false
		}
		if err := st.WriteText(stdout); err != nil {
			logger.Error(fmt.Sprintf("lrdtop: %v", err))
			return st, false
		}
		return st, true
	}

	st, ok := render()
	if !ok {
		return 1
	}
	if *once {
		return 0
	}
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		// With a known grid size the watch ends itself when the sweep does.
		if st.CellsExpected > 0 && st.CellsDone >= st.CellsExpected {
			return 0
		}
		select {
		case <-ctx.Done():
			return 0
		case <-ticker.C:
		}
		if st, ok = render(); !ok {
			return 1
		}
	}
}
