package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"lrd/internal/fluid"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/resilient"
	"lrd/internal/solver"
	"lrd/internal/source"
)

// CellStore persists per-cell sweep outcomes and replays them on resume.
// Keys are opaque strings composed by the sweep layer from everything that
// determines a cell's result (experiment id, seed, solver-config hash, and
// grid coordinates); values are the cell's JSON-serialized result.
//
// Implementations must be safe for concurrent use: sweep workers store and
// look up cells in parallel.
type CellStore interface {
	// Lookup returns the serialized result of a previously completed cell.
	Lookup(key string) (json.RawMessage, bool)
	// Store durably records a completed cell. An error fails the sweep —
	// silently losing durability would defeat the journal's purpose.
	Store(key string, value any) error
	// Fail records a failed attempt at a cell (informational: a resumed
	// sweep recomputes failed cells).
	Fail(key string, attempt int, err error) error
}

// JournalStore is the CellStore backed by an append-only JSONL journal
// (internal/journal): every Store fsyncs one line, and opening with resume
// replays the journal so completed cells are served from memory.
type JournalStore struct {
	w   *journal.Writer
	rec obs.Recorder

	mu     sync.RWMutex
	cached map[string]json.RawMessage
}

// JournalStoreOptions configures OpenJournalStore.
type JournalStoreOptions struct {
	// Resume replays the existing journal (completed cells will be skipped)
	// instead of truncating it.
	Resume bool
	// Recorder receives journal telemetry: cells resumed, bytes appended,
	// corrupt lines skipped. Nil disables it.
	Recorder obs.Recorder
	// Warn receives human-readable warnings (corrupt journal lines). Nil
	// silences them.
	Warn io.Writer
}

// OpenJournalStore opens (or creates) the cell journal at path. With
// opts.Resume the journal's intact records are loaded — corrupt lines,
// e.g. a trailing line truncated by a crash, are skipped with a warning
// and their cells recomputed — and new records append; otherwise the
// journal starts fresh.
func OpenJournalStore(path string, opts JournalStoreOptions) (*JournalStore, error) {
	s := &JournalStore{rec: opts.Recorder, cached: map[string]json.RawMessage{}}
	if opts.Resume {
		recs, stats, err := journal.LoadAndQuarantine(path)
		if err != nil {
			return nil, err
		}
		warnCorrupt(path, stats, s.rec, opts.Warn)
		s.cached = journal.Completed(recs)
	}
	w, err := journal.Open(path, opts.Resume)
	if err != nil {
		return nil, err
	}
	s.w = w
	return s, nil
}

// warnCorrupt reports a replay's skipped lines: both kinds are recoverable
// (the cells recompute), but interior corruption — which no clean crash
// produces — is called out distinctly from the tolerated torn trailing
// line, and each kind feeds its own counter alongside the combined one.
func warnCorrupt(path string, stats journal.LoadStats, rec obs.Recorder, warn io.Writer) {
	if stats.Corrupt() == 0 && stats.CrcMismatch == 0 {
		return
	}
	if warn != nil {
		if stats.Corrupt() > 0 {
			fmt.Fprintf(warn, "journal: skipped %d corrupt line(s) in %s (%d interior, %d trailing); their cells will be recomputed\n",
				stats.Corrupt(), path, stats.CorruptInterior, stats.CorruptTrailing)
		}
		if stats.CrcMismatch > 0 {
			fmt.Fprintf(warn, "journal: %d record(s) in %s failed their CRC32C check and will not be trusted; their cells will be recomputed\n",
				stats.CrcMismatch, path)
		}
		if stats.CorruptInterior > 0 || stats.CrcMismatch > 0 {
			fmt.Fprintf(warn, "journal: interior corruption in %s is not a crash artifact — check the disk or concurrent writers\n", path)
		}
		if stats.Quarantined > 0 {
			fmt.Fprintf(warn, "journal: preserved %d damaged line(s) in %s%s\n",
				stats.Quarantined, path, journal.QuarantineSuffix)
		}
	}
	if rec != nil {
		rec.Add(obs.MetricCoreJournalCorrupt, float64(stats.Corrupt()))
		if stats.CorruptInterior > 0 {
			rec.Add(obs.MetricCoreJournalCorruptInterior, float64(stats.CorruptInterior))
		}
		if stats.CorruptTrailing > 0 {
			rec.Add(obs.MetricCoreJournalCorruptTrailing, float64(stats.CorruptTrailing))
		}
		if stats.CrcMismatch > 0 {
			rec.Add(obs.MetricCoreJournalCrcMismatch, float64(stats.CrcMismatch))
		}
		if stats.Quarantined > 0 {
			rec.Add(obs.MetricCoreJournalQuarantined, float64(stats.Quarantined))
		}
	}
}

// Lookup implements CellStore from the replayed journal.
func (s *JournalStore) Lookup(key string) (json.RawMessage, bool) {
	s.mu.RLock()
	v, ok := s.cached[key]
	s.mu.RUnlock()
	return v, ok
}

// Completed returns the number of cells the journal replay recovered.
func (s *JournalStore) Completed() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cached)
}

// Store implements CellStore: one fsync'd journal append per cell.
func (s *JournalStore) Store(key string, value any) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("core: encoding cell %q: %w", key, err)
	}
	n, err := s.w.Append(journal.Record{Key: key, Status: journal.StatusOK, Value: raw})
	if err != nil {
		return err
	}
	if s.rec != nil {
		s.rec.Add(obs.MetricCoreJournalBytes, float64(n))
	}
	s.mu.Lock()
	s.cached[key] = raw
	s.mu.Unlock()
	return nil
}

// Range calls fn for every completed cell the store currently holds
// (journal-replayed and stored this run alike), stopping early when fn
// returns false. Iteration order is unspecified. The serving layer uses it
// to warm its in-memory solve cache from a persisted journal on restart.
// fn must not call back into the store.
func (s *JournalStore) Range(fn func(key string, value json.RawMessage) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.cached {
		if !fn(k, v) {
			return
		}
	}
}

// Fail implements CellStore.
func (s *JournalStore) Fail(key string, attempt int, err error) error {
	n, aerr := s.w.Append(journal.Record{Key: key, Status: journal.StatusFail, Attempt: attempt, Error: err.Error()})
	if aerr != nil {
		return aerr
	}
	if s.rec != nil {
		s.rec.Add(obs.MetricCoreJournalBytes, float64(n))
	}
	return nil
}

// Close closes the underlying journal.
func (s *JournalStore) Close() error { return s.w.Close() }

// RetryPolicy bounds the re-execution of transiently failed or degraded
// sweep cells: a cell whose solve tripped the numeric watchdog
// (solver.RetryableError) or degraded for a retryable reason
// (DegradeReason.Retryable — deadline, cancellation) is re-run up to
// MaxAttempts times, waiting between attempts by resilient.Backoff:
// exponential backoff with full jitter, capped at 5 s. Terminal outcomes —
// iteration-budget exhaustion, numeric stalls, malformed inputs — are
// never retried. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per cell (first try
	// included). Values below 1 mean a single attempt, i.e. no retry.
	MaxAttempts int
	// Backoff is the base delay: after the k-th failed attempt the cell
	// waits uniformly on [0, min(5 s, Backoff·2^(k-1))]. Default 100 ms.
	Backoff time.Duration
}

// maxRetryBackoff caps every retry delay.
const maxRetryBackoff = 5 * time.Second

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the jittered delay to wait after a failed attempt
// (attempt counts from 1). Jitter decorrelates the retries of cells that
// failed together — e.g. a whole worker pool degraded by one slow machine
// moment — so they do not re-land in lockstep. It is timing-only
// randomness: results are unaffected, so sweep determinism is preserved.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	return resilient.Backoff(base, maxRetryBackoff, attempt, rand.Float64())
}

// SweepConfig bundles what every sweep needs beyond its grid: the solver
// configuration, the traffic model the sweep's cells are realized as, and
// the optional durability layer (cell store, retry policy, key namespace).
type SweepConfig struct {
	// Solver is the per-cell solver configuration.
	Solver solver.Config
	// Model selects the registered traffic model every cell's reference
	// fluid source is transformed into before solving (see internal/source).
	// The zero spec is the fluid identity: the paper's model, bit-identical
	// to the pre-registry code path.
	Model source.Spec
	// Store, when non-nil, is consulted before each cell is solved (cells
	// already journaled are skipped) and receives each completed cell.
	Store CellStore
	// Retry re-runs transiently failed or degraded cells (see RetryPolicy).
	Retry RetryPolicy
	// Prefix namespaces this sweep's journal keys. It must capture every
	// input that determines cell results but is not part of the per-cell
	// key — experiment id, trace/seed identity, solver-config hash, and
	// model spec (see RunOptions.sweepConfig), so a journal written under
	// one model is never replayed into a run with another. Irrelevant when
	// Store is nil.
	Prefix string
	// Workers caps the in-process worker pool. Zero or negative means one
	// worker per CPU. Distributed runs (several processes sharing one
	// journal, see LeaseStore) set it so the fleet's total matches the
	// machine instead of oversubscribing it NumCPU-fold.
	Workers int
	// Remote, when non-nil, delegates each cell's realize+solve to a remote
	// fleet (lrdsweep -fleet wires it to lrdserve replicas through the
	// resilient client) instead of the in-process solver. Journaling,
	// leasing, and retries still run locally — only the numeric work moves.
	Remote RemoteSolveFunc
	// WarmStarts chains cross-cell warm starts up each buffer column of a
	// solved surface with more than one buffer (LossVsBufferAndCutoff,
	// LossVsBufferAndScale): each cell's bound iteration is seeded from its
	// smaller-buffer neighbor's final occupancy vectors. Bounds stay
	// provably valid (see solver.Seed) but land elsewhere inside the
	// bracket than a cold solve's, so warm sweeps journal under a
	// "warm=1|"-extended prefix and never share journals with cold runs.
	// Ignored for remote cells and single-buffer surfaces.
	WarmStarts bool
}

// RemoteCell is one sweep cell handed to a RemoteSolveFunc: the reference
// fluid source plus the model spec and solver configuration the remote end
// must realize and solve it under — everything a SolveRequest needs.
type RemoteCell struct {
	Ref              fluid.Source
	Model            source.Spec
	Util             float64
	NormalizedBuffer float64
	Config           solver.Config
}

// RemoteSolveFunc computes one cell remotely. Only the bracket of the
// returned Point is read (Loss, Lower, Upper, Converged, Degraded): the
// sweep places it at the cell's coordinates itself, as it does a local
// solve, so remote sweeps stay bit-compatible with local ones.
type RemoteSolveFunc func(ctx context.Context, cell RemoteCell) (Point, error)

// Sweep wraps a bare solver configuration into a SweepConfig with no
// durability layer — the zero-migration path for direct library callers.
func Sweep(cfg solver.Config) SweepConfig { return SweepConfig{Solver: cfg} }

// Sub returns a copy whose journal keys are further namespaced by extra,
// for experiments that run the same sweep function more than once (e.g.
// fig9's per-marginal cutoff scans).
func (c SweepConfig) Sub(extra string) SweepConfig {
	c.Prefix += extra + "|"
	return c
}

// fkey formats a float for use in a journal key: shortest round-trippable
// form, so the same grid value always produces the same key.
func fkey(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
