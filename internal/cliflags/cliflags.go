// Package cliflags is the single definition of the flag groups that two or
// more lrd commands share: the observability flags
// (-metrics/-trace/-progress/-pprof), the whole-run budget (-timeout), the
// journal pair (-journal/-resume), the lease pair (-worker-id/-lease-ttl),
// the remote-fleet client flags (-fleet/-attempts/-hedge-after/
// -breaker-fails/-breaker-cooldown), and the model pair
// (-model/-model-params). Each group is registered by one function, so a
// flag's name, default, and help text are identical in every binary that
// offers it — and the canon table plus CheckUsage let each command's tests
// assert exactly that against the binary's own -h output. A flag with one
// user lives in that command.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"lrd/internal/core"
	"lrd/internal/obs"
	"lrd/internal/resilient"
	"lrd/internal/source"
)

// Obs is the shared observability flag group. Wire it to obs.StartCLI with
// CLIOptions.
type Obs struct {
	Metrics  *string
	Trace    *string
	Progress *bool
	Pprof    *string
}

// ObsGroup registers -metrics, -trace, -progress, and -pprof on fs.
func ObsGroup(fs *flag.FlagSet) *Obs {
	return &Obs{
		Metrics:  fs.String("metrics", "", canon["metrics"].Usage),
		Trace:    fs.String("trace", "", canon["trace"].Usage),
		Progress: fs.Bool("progress", false, canon["progress"].Usage),
		Pprof:    fs.String("pprof", "", canon["pprof"].Usage),
	}
}

// CLIOptions assembles the obs.StartCLI options for the parsed group.
func (o *Obs) CLIOptions(name string, progressOut io.Writer) obs.CLIOptions {
	return obs.CLIOptions{
		Name:        name,
		MetricsPath: *o.Metrics,
		TracePath:   *o.Trace,
		PprofAddr:   *o.Pprof,
		Progress:    *o.Progress,
		ProgressOut: progressOut,
	}
}

// Journal is the shared durability flag group.
type Journal struct {
	Path   *string
	Resume *bool
}

// JournalGroup registers -journal and -resume on fs.
func JournalGroup(fs *flag.FlagSet) *Journal {
	return &Journal{
		Path:   fs.String("journal", "", canon["journal"].Usage),
		Resume: fs.Bool("resume", false, canon["resume"].Usage),
	}
}

// Open validates the group and opens the journal store: nil when no
// -journal was given, an error for -resume without -journal or an
// unopenable journal. When resuming a non-empty journal it prints the
// standard "resuming J: N completed cell(s) on record" notice to warn. N
// counts every completed cell in the file: on a journal shared by several
// experiments most of them may belong to the others (the cells this run
// replays are core_cells_resumed_total in -metrics).
func (j *Journal) Open(prog string, rec obs.Recorder, warn io.Writer) (*core.JournalStore, error) {
	if *j.Path == "" {
		if *j.Resume {
			return nil, fmt.Errorf("%s: -resume requires -journal", prog)
		}
		return nil, nil
	}
	store, err := core.OpenJournalStore(*j.Path, core.JournalStoreOptions{
		Resume:   *j.Resume,
		Recorder: rec,
		Warn:     warn,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prog, err)
	}
	if *j.Resume && store.Completed() > 0 && warn != nil {
		fmt.Fprintf(warn, "%s: resuming %s: %d completed cell(s) on record\n", prog, *j.Path, store.Completed())
	}
	return store, nil
}

// Lease is the shared distributed-fleet flag group: -worker-id and
// -lease-ttl turn the -journal into a coordinator-free work queue shared by
// a fleet of processes (see core.LeaseStore).
type Lease struct {
	WorkerID *string
	TTL      *time.Duration
}

// LeaseGroup registers -worker-id and -lease-ttl on fs.
func LeaseGroup(fs *flag.FlagSet) *Lease {
	return &Lease{
		WorkerID: fs.String("worker-id", "", canon["worker-id"].Usage),
		TTL:      fs.Duration("lease-ttl", 10*time.Second, canon["lease-ttl"].Usage),
	}
}

// Open validates the group and opens the shared lease store: nil when no
// -worker-id was given (the run is not distributed), an error for
// -worker-id without -journal. The journal is always opened in resume
// mode — it is shared state, so no worker may truncate it; pair a fresh
// sweep with a fresh journal path (or delete the old file) instead.
func (l *Lease) Open(prog string, j *Journal, rec obs.Recorder, warn io.Writer) (*core.LeaseStore, error) {
	if *l.WorkerID == "" {
		return nil, nil
	}
	if *j.Path == "" {
		return nil, fmt.Errorf("%s: -worker-id requires -journal (the shared work queue)", prog)
	}
	store, err := core.OpenLeaseStore(*j.Path, core.LeaseStoreOptions{
		Worker:   *l.WorkerID,
		TTL:      *l.TTL,
		Recorder: rec,
		Warn:     warn,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prog, err)
	}
	if store.Completed() > 0 && warn != nil {
		fmt.Fprintf(warn, "%s: joining shared journal %s: %d completed cell(s) on record\n", prog, *j.Path, store.Completed())
	}
	return store, nil
}

// Fleet is the shared remote-fleet flag group (lrdsweep -fleet and
// lrdcall): -fleet lists lrdserve replica base URLs, the rest tune the
// resilient client — retry attempts, hedging, and the per-replica circuit
// breakers.
type Fleet struct {
	Fleet           *string
	Attempts        *int
	HedgeAfter      *time.Duration
	BreakerFails    *int
	BreakerCooldown *time.Duration
}

// FleetGroup registers -fleet, -attempts, -hedge-after, -breaker-fails,
// and -breaker-cooldown on fs.
func FleetGroup(fs *flag.FlagSet) *Fleet {
	return &Fleet{
		Fleet:           fs.String("fleet", "", canon["fleet"].Usage),
		Attempts:        fs.Int("attempts", 4, canon["attempts"].Usage),
		HedgeAfter:      fs.Duration("hedge-after", 0, canon["hedge-after"].Usage),
		BreakerFails:    fs.Int("breaker-fails", 5, canon["breaker-fails"].Usage),
		BreakerCooldown: fs.Duration("breaker-cooldown", 5*time.Second, canon["breaker-cooldown"].Usage),
	}
}

// Enabled reports whether -fleet was given.
func (f *Fleet) Enabled() bool { return *f.Fleet != "" }

// Replicas returns the parsed -fleet list (comma-separated base URLs).
func (f *Fleet) Replicas() []string {
	var out []string
	for _, r := range strings.Split(*f.Fleet, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}

// Policy returns the parsed group as a resilient.Policy.
func (f *Fleet) Policy() resilient.Policy {
	return resilient.Policy{
		MaxAttempts:     *f.Attempts,
		HedgeAfter:      *f.HedgeAfter,
		BreakerFailures: *f.BreakerFails,
		BreakerCooldown: *f.BreakerCooldown,
	}
}

// Client builds the resilient fleet client for the parsed group; call only
// when Enabled.
func (f *Fleet) Client(prog string, rec obs.Recorder) (*resilient.Client, error) {
	c, err := resilient.New(f.Replicas(), resilient.Options{Policy: f.Policy(), Recorder: rec})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prog, err)
	}
	return c, nil
}

// Budget is the shared whole-run budget flag (-timeout).
type Budget struct {
	Timeout *time.Duration
}

// BudgetGroup registers -timeout on fs.
func BudgetGroup(fs *flag.FlagSet) *Budget {
	return &Budget{Timeout: fs.Duration("timeout", 0, canon["timeout"].Usage)}
}

// Context wraps parent with the -timeout budget when one was given. The
// returned cancel func is always non-nil.
func (b *Budget) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if *b.Timeout > 0 {
		return context.WithTimeout(parent, *b.Timeout)
	}
	return context.WithCancel(parent)
}

// ModelGroup registers the shared -model/-model-params pair on fs and
// returns the closure that parses them (after fs.Parse) into model specs.
// It delegates to internal/source, which owns the registry the flags
// enumerate.
func ModelGroup(fs *flag.FlagSet) func() ([]source.Spec, error) {
	return source.ModelFlags(fs)
}

// FlagSpec is one canonical shared flag: its name, the exact "(default …)"
// fragment flag.PrintDefaults renders for it ("" when the zero default is
// not printed), and its help text.
type FlagSpec struct {
	Name    string
	Default string
	Usage   string
}

// canon is the single source of truth for the shared flags' help text and
// printed defaults. The group constructors above read their usage strings
// from it, so the table cannot drift from the registrations; the per-binary
// drift tests check -h output against it, so no binary can drift from the
// table.
var canon = map[string]FlagSpec{
	"metrics":          {"metrics", "", "write a JSON metrics snapshot to this file on exit"},
	"trace":            {"trace", "", "write solver convergence points and trace spans to this file as JSONL"},
	"progress":         {"progress", "", "print a periodic progress line to stderr"},
	"pprof":            {"pprof", "", "serve net/http/pprof, expvar, and Prometheus /metrics on this address (e.g. localhost:6060)"},
	"journal":          {"journal", "", "checkpoint every completed cell to this append-only journal"},
	"resume":           {"resume", "", "replay the -journal and skip its completed cells"},
	"worker-id":        {"worker-id", "", "join the -journal as this named worker of a distributed fleet (leases cells, adopts peers' results)"},
	"lease-ttl":        {"lease-ttl", "(default 10s)", "lease duration before an unrenewed cell claim is presumed dead and re-leased"},
	"timeout":          {"timeout", "", "wall-clock budget for the whole run (0 = none)"},
	"model":            {"model", `(default "fluid")`, ""}, // usage is registry-derived; checked by name+default only
	"model-params":     {"model-params", "", "model parameters as key=value,… applied to every -model entry"},
	"fleet":            {"fleet", "", "offload solves to these lrdserve replicas (comma-separated base URLs) via the resilient fleet client"},
	"attempts":         {"attempts", "(default 4)", "total tries per fleet request, first attempt included"},
	"hedge-after":      {"hedge-after", "", "duplicate a slow fleet request to a second replica after this delay (0 = no hedging)"},
	"breaker-fails":    {"breaker-fails", "(default 5)", "consecutive failures that open a replica's circuit breaker"},
	"breaker-cooldown": {"breaker-cooldown", "(default 5s)", "how long an open circuit breaker refuses a replica before a half-open probe"},
}

// Canon returns the canonical spec for each named shared flag, failing on
// names outside the table so a drift test cannot silently check nothing.
func Canon(names ...string) ([]FlagSpec, error) {
	out := make([]FlagSpec, 0, len(names))
	for _, n := range names {
		spec, ok := canon[n]
		if !ok {
			return nil, fmt.Errorf("cliflags: %q is not a canonical shared flag", n)
		}
		out = append(out, spec)
	}
	return out, nil
}

// CheckUsage verifies that a binary's -h output registers each named
// canonical flag with the canonical help text and printed default. It is
// the cross-binary drift check: every command's test feeds its own usage
// dump through here, so two binaries can only ever disagree about a shared
// flag by one of them failing its own test.
func CheckUsage(usage string, names ...string) error {
	specs, err := Canon(names...)
	if err != nil {
		return err
	}
	var missing []string
	for _, spec := range specs {
		// PrintDefaults renders "  -name" at the start of a line.
		block := flagBlock(usage, spec.Name)
		switch {
		case block == "":
			missing = append(missing, fmt.Sprintf("%s: flag not registered", spec.Name))
		case spec.Usage != "" && !strings.Contains(block, spec.Usage):
			missing = append(missing, fmt.Sprintf("%s: help text diverged from canon (got %q)", spec.Name, strings.TrimSpace(block)))
		case spec.Default != "" && !strings.Contains(block, spec.Default):
			missing = append(missing, fmt.Sprintf("%s: default diverged from canon %s (got %q)", spec.Name, spec.Default, strings.TrimSpace(block)))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("cliflags: usage drift:\n  %s", strings.Join(missing, "\n  "))
	}
	return nil
}

// flagBlock extracts the PrintDefaults block for one flag: the "  -name"
// line plus its indented continuation lines.
func flagBlock(usage, name string) string {
	lines := strings.Split(usage, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "  -"+name+" ") || line == "  -"+name {
			block := line
			for j := i + 1; j < len(lines) && strings.HasPrefix(lines[j], "    "); j++ {
				block += "\n" + lines[j]
			}
			return block
		}
	}
	return ""
}
