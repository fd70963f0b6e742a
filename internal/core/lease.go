package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"lrd/internal/faultinject"
	"lrd/internal/journal"
	"lrd/internal/obs"
	"lrd/internal/resilient"
)

// LeaseClaimer is the coordination interface lease-aware cell stores add
// on top of CellStore. The sweep engine consults it before computing a
// cell: Acquire either hands the caller an exclusive lease on the cell
// (acquired true — compute it, then Store to complete or Release to give
// it back) or blocks until another worker completes the cell and returns
// its value (acquired false — adopt it). This is what makes N independent
// worker processes sharing one journal converge on exactly one computation
// per cell while every worker still ends up holding the full result table.
type LeaseClaimer interface {
	// Acquire returns either the cell's completed value (acquired false) or
	// an exclusive lease on it (acquired true). It blocks while another
	// live worker holds the lease, and takes over — with a higher fencing
	// epoch — when a holder's lease expires unrenewed.
	Acquire(ctx context.Context, key string) (value json.RawMessage, acquired bool, err error)
	// Release gives back a lease acquired but not completed (the cell's
	// outcome was transient and must be recomputable). Releasing a lease
	// that is not held is a no-op.
	Release(key string) error
}

// LeaseStoreOptions configures OpenLeaseStore.
type LeaseStoreOptions struct {
	// Worker identifies this process in the shared journal. Required, and
	// must differ between the workers sharing a journal — two workers with
	// one id would treat each other's claims as their own.
	Worker string
	// TTL is the lease duration. A worker that neither completes, renews,
	// nor releases a lease within TTL is presumed dead and its cell is
	// re-leased by whoever gets there first. Required (> 0); it must
	// comfortably exceed both the heartbeat interval (TTL/3) and any
	// wall-clock skew between workers sharing the journal.
	TTL time.Duration
	// Poll is the interval at which a worker blocked on another worker's
	// lease re-reads the journal. Defaults to TTL/4 capped at 250ms.
	Poll time.Duration
	// Recorder receives lease telemetry. Nil disables it.
	Recorder obs.Recorder
	// Warn receives human-readable warnings (corrupt journal lines, failed
	// renewals). Nil silences them.
	Warn io.Writer
}

// LeaseStore is the distributed CellStore: an append-only journal
// (internal/journal) shared by N coordinator-free worker processes, used
// both as the durability layer and as the work queue. Ownership of a cell
// is a lease — a claimed record naming the worker, a fencing epoch, and a
// wall-clock deadline — published by appending to the journal and observed
// by every worker tail-reading it (journal.ReadFrom). The protocol:
//
//   - Claim: append a claimed record at epoch = 1 + the highest epoch ever
//     seen for the cell, then re-read the journal. The first claim in file
//     order at the winning epoch holds the lease; O_APPEND makes the file
//     order a total order all workers agree on, so no coordinator is
//     needed to break ties.
//   - Renew: a heartbeat goroutine (StartHeartbeat) re-appends each held
//     claim with an extended deadline every TTL/3. Deadlines only ever
//     move forward.
//   - Steal: a claim whose deadline has passed is presumed dead; the next
//     claimant takes the cell over at a higher epoch.
//   - Fence: completions carry the epoch of the lease they were computed
//     under, and on conflicting completions the highest epoch wins
//     regardless of append order. A zombie — a worker that stalled, lost
//     its lease, and finished anyway — appends a completion with a visibly
//     stale epoch that loses every fold, so it can never overwrite the
//     newer holder's result. The store applies records through
//     journal.Fold, the same conflict rules resume, compaction and the
//     fleet view use.
//
// LeaseStore implements CellStore and LeaseClaimer; it is safe for
// concurrent use by the sweep worker pool plus the heartbeat goroutine.
type LeaseStore struct {
	path   string
	worker string
	ttl    time.Duration
	poll   time.Duration
	rec    obs.Recorder
	warn   io.Writer
	now    func() time.Time // injectable clock for tests

	w *journal.Writer

	mu     sync.Mutex
	offset int64            // journal bytes folded so far
	cells  journal.Fold     // completions, live claims and epochs per cell
	held   map[string]int64 // leases this worker holds -> epoch
}

// OpenLeaseStore opens the shared work journal at path and folds its
// current contents. The journal is always opened in resume mode: it is
// shared state, and truncating it out from under the other workers would
// destroy their claims and results — callers wanting a fresh sweep delete
// the file instead.
func OpenLeaseStore(path string, opts LeaseStoreOptions) (*LeaseStore, error) {
	if opts.Worker == "" {
		return nil, fmt.Errorf("core: lease store requires a non-empty worker id")
	}
	if opts.TTL <= 0 {
		return nil, fmt.Errorf("core: lease TTL must be positive, got %v", opts.TTL)
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = opts.TTL / 4
		if poll > 250*time.Millisecond {
			poll = 250 * time.Millisecond
		}
		if poll <= 0 {
			poll = time.Millisecond
		}
	}
	s := &LeaseStore{
		path:   path,
		worker: opts.Worker,
		ttl:    opts.TTL,
		poll:   poll,
		rec:    opts.Recorder,
		warn:   opts.Warn,
		now:    time.Now,
		held:   map[string]int64{},
	}
	w, err := journal.Open(path, true)
	if err != nil {
		return nil, err
	}
	s.w = w
	// Initial fold via LoadAndQuarantine rather than the tailing reader:
	// opening is the once-per-process moment to preserve damaged lines in
	// the .quarantine sidecar and classify them (every tailer re-reporting
	// the same evidence would only duplicate it). Open(resume) above has
	// already newline-terminated any torn tail, so stats.NextOffset is a
	// line boundary the incremental ReadFrom tail can continue from.
	recs, stats, err := journal.LoadAndQuarantine(path)
	if err != nil {
		w.Close()
		return nil, err
	}
	warnCorrupt(path, stats, s.rec, s.warn)
	s.mu.Lock()
	s.offset = stats.NextOffset
	for _, rec := range recs {
		s.foldLocked(rec)
	}
	s.mu.Unlock()
	return s, nil
}

// refreshLocked folds the journal records appended (by anyone, this worker
// included) since the last refresh. Callers hold s.mu.
func (s *LeaseStore) refreshLocked() error {
	recs, tail, next, err := journal.ReadFrom(s.path, s.offset)
	if err != nil {
		return err
	}
	s.offset = next
	if tail.Total() > 0 {
		// A complete-but-undecodable line in a live shared journal is
		// interior corruption: appends never tear (single O_APPEND writes),
		// so this is disk damage or a foreign writer. CRC mismatches are the
		// same damage caught at the content layer.
		if s.warn != nil {
			fmt.Fprintf(s.warn, "journal: skipped %d damaged line(s) tailing %s (%d undecodable, %d CRC-mismatched) — not a crash artifact, check the disk or concurrent writers\n",
				tail.Total(), s.path, tail.Corrupt, tail.CrcMismatch)
		}
		if s.rec != nil {
			if tail.Corrupt > 0 {
				s.rec.Add(obs.MetricCoreJournalCorrupt, float64(tail.Corrupt))
				s.rec.Add(obs.MetricCoreJournalCorruptInterior, float64(tail.Corrupt))
			}
			if tail.CrcMismatch > 0 {
				s.rec.Add(obs.MetricCoreJournalCrcMismatch, float64(tail.CrcMismatch))
			}
		}
	}
	for _, rec := range recs {
		s.foldLocked(rec)
	}
	return nil
}

// foldLocked applies one journal record to the in-memory lease state and
// returns the record's cell as it was before. Every worker folds the same
// records in the same file order, so all reach the same state.
func (s *LeaseStore) foldLocked(rec journal.Record) (prev journal.Cell) {
	prev = s.cells.Apply(rec)
	if rec.Epoch > prev.MaxEpoch && s.rec != nil {
		s.rec.Set(obs.MetricCoreLeaseEpoch, float64(rec.Epoch))
	}
	return prev
}

// Acquire implements LeaseClaimer. It loops: adopt the cell if some worker
// completed it, claim it if it is unclaimed / expired / released, wait
// (polling the journal) while a live worker holds it.
func (s *LeaseStore) Acquire(ctx context.Context, key string) (json.RawMessage, bool, error) {
	start := s.now()
	waited := false
	defer func() {
		if waited && s.rec != nil {
			s.rec.Observe(obs.MetricCoreLeaseWaitSecs, s.now().Sub(start).Seconds())
		}
	}()
	for {
		v, acquired, decided, err := s.tryAcquire(key)
		if err != nil {
			return nil, false, err
		}
		if decided {
			return v, acquired, nil
		}
		// Another live worker holds the cell: wait and re-read.
		waited = true
		if err := resilient.Sleep(ctx, s.poll); err != nil {
			return nil, false, err
		}
	}
}

// tryAcquire makes one pass at the cell: decided reports whether the cell
// reached an outcome (adopted or leased); !decided means a live claim by
// another worker blocks it.
func (s *LeaseStore) tryAcquire(key string) (value json.RawMessage, acquired, decided bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, false, false, err
	}
	c := s.cells.Cell(key)
	if c.OK != nil {
		return c.OK.Value, false, true, nil
	}
	if _, ok := s.held[key]; ok {
		// Re-entrant acquire of a lease this worker already holds.
		return nil, true, true, nil
	}
	claimed := c.Claim != nil
	if claimed && c.Claim.Deadline > s.now().UnixNano() {
		return nil, false, false, nil // live claim by another worker
	}
	// Unclaimed, expired, or released: claim at a fresh fencing epoch.
	epoch := c.MaxEpoch + 1
	deadline := s.now().Add(s.ttl).UnixNano()
	if _, err := s.w.Append(journal.Record{
		Key: key, Status: journal.StatusClaimed,
		Worker: s.worker, Epoch: epoch, Deadline: deadline,
	}); err != nil {
		return nil, false, false, err
	}
	// Re-read to resolve the race: the first claim in file order at the
	// winning epoch holds the lease.
	if err := s.refreshLocked(); err != nil {
		return nil, false, false, err
	}
	c = s.cells.Cell(key)
	if c.OK != nil {
		// A completion slipped in between our read and our claim.
		return c.OK.Value, false, true, nil
	}
	if w := c.Claim; w != nil && w.Worker == s.worker && w.Epoch == epoch {
		s.held[key] = epoch
		if s.rec != nil {
			s.rec.Add(obs.MetricCoreLeasesClaimed, 1)
			if claimed {
				s.rec.Add(obs.MetricCoreLeasesStolen, 1)
			}
			s.rec.Set(obs.MetricCoreLeasesHeld, float64(len(s.held)))
		}
		return nil, true, true, nil
	}
	// Lost the claim race to another worker's append.
	if s.rec != nil {
		s.rec.Add(obs.MetricCoreLeasesLost, 1)
	}
	return nil, false, false, nil
}

// Release implements LeaseClaimer: it gives back a held lease by
// appending a claimed record with Deadline 0 at the lease's epoch, letting
// other workers take the cell over immediately instead of waiting out the
// TTL.
func (s *LeaseStore) Release(key string) error {
	s.mu.Lock()
	epoch, ok := s.held[key]
	if ok {
		delete(s.held, key)
		if s.rec != nil {
			s.rec.Add(obs.MetricCoreLeasesReleased, 1)
			s.rec.Set(obs.MetricCoreLeasesHeld, float64(len(s.held)))
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	_, err := s.w.Append(journal.Record{
		Key: key, Status: journal.StatusClaimed,
		Worker: s.worker, Epoch: epoch, Deadline: 0,
	})
	return err
}

// Lookup implements CellStore from the folded journal. Refresh errors
// surface as a miss: recomputing the cell is always safe.
func (s *LeaseStore) Lookup(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, false
	}
	if done := s.cells.Cell(key).OK; done != nil {
		return done.Value, true
	}
	return nil, false
}

// Store implements CellStore: it completes the cell under the lease this
// worker holds (epoch-stamping the record so a stale holder's write can
// never beat a newer one) and consumes the lease.
func (s *LeaseStore) Store(key string, value any) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("core: encoding cell %q: %w", key, err)
	}
	s.mu.Lock()
	epoch := s.held[key] // zero when storing without a lease
	delete(s.held, key)
	if s.rec != nil {
		s.rec.Set(obs.MetricCoreLeasesHeld, float64(len(s.held)))
	}
	s.mu.Unlock()
	rec := journal.Record{
		Key: key, Status: journal.StatusOK, Value: raw,
		Worker: s.worker, Epoch: epoch,
	}
	n, err := s.w.Append(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	// Fold everything appended since our last read (our own record
	// included) before judging the conflict: a zombie must see the thief's
	// newer completion, not just its own stale state. A refresh error here
	// is tolerable — the append above already made the record durable and
	// the next refresh re-folds from the same offset.
	_ = s.refreshLocked()
	if prev := s.foldLocked(rec); prev.OK != nil && prev.OK.Epoch > epoch && s.rec != nil {
		// Our lease was stolen mid-compute and the thief finished first:
		// our write just lost the epoch fold. Harmless — fencing working
		// as designed — but worth counting.
		s.rec.Add(obs.MetricCoreLeasesFenced, 1)
	}
	s.mu.Unlock()
	if s.rec != nil {
		s.rec.Add(obs.MetricCoreJournalBytes, float64(n))
	}
	return nil
}

// Fail implements CellStore. The record is informational (resumed runs
// recompute failed cells) and keeps the lease: the retry loop re-attempts
// the cell under the same lease.
func (s *LeaseStore) Fail(key string, attempt int, err error) error {
	s.mu.Lock()
	epoch := s.held[key]
	s.mu.Unlock()
	n, aerr := s.w.Append(journal.Record{
		Key: key, Status: journal.StatusFail, Attempt: attempt, Error: err.Error(),
		Worker: s.worker, Epoch: epoch,
	})
	if aerr != nil {
		return aerr
	}
	if s.rec != nil {
		s.rec.Add(obs.MetricCoreJournalBytes, float64(n))
	}
	return nil
}

// Completed returns the number of completed cells currently folded.
func (s *LeaseStore) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.refreshLocked() // best effort; a refresh error just undercounts
	return s.cells.Completed()
}

// Range calls fn for every completed cell currently folded, in journal
// order, stopping early when fn returns false. fn must not call back into
// the store.
func (s *LeaseStore) Range(fn func(key string, value json.RawMessage) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells.Range(func(key string, c journal.Cell) bool {
		return c.OK == nil || fn(key, c.OK.Value)
	})
}

// StartHeartbeat starts the lease-renewal goroutine: every TTL/3 it
// re-appends each held claim with an extended deadline, so live workers
// keep their cells while dead workers' leases expire. The returned stop
// function halts it and waits for it to exit; stopping (or canceling ctx)
// without releasing is how a crashing worker's leases end up expiring.
func (s *LeaseStore) StartHeartbeat(ctx context.Context) (stop func()) {
	interval := s.ttl / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.renewHeld()
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// renewHeld appends a renewal for every lease this worker still holds.
// The faultinject hook simulates a stalled worker: an injected error
// silently skips the round, so the worker's leases drift toward expiry
// exactly as a wedged process's would.
func (s *LeaseStore) renewHeld() {
	if err := faultinject.ApplyErr(faultinject.LeaseRenew); err != nil {
		return
	}
	s.mu.Lock()
	if err := s.refreshLocked(); err != nil {
		s.mu.Unlock()
		return
	}
	type renewal struct {
		key   string
		epoch int64
	}
	var renew []renewal
	for key, epoch := range s.held {
		if c := s.cells.Cell(key).Claim; c == nil || c.Worker != s.worker || c.Epoch != epoch {
			// The lease was stolen out from under us (we stalled past the
			// TTL). Stop renewing; if the compute still in flight completes,
			// its stale-epoch write will be fenced out.
			delete(s.held, key)
			if s.rec != nil {
				s.rec.Add(obs.MetricCoreLeasesFenced, 1)
				s.rec.Set(obs.MetricCoreLeasesHeld, float64(len(s.held)))
			}
			if s.warn != nil {
				fmt.Fprintf(s.warn, "lease: worker %s lost its lease on %q (stalled past the TTL); its result will be fenced\n", s.worker, key)
			}
			continue
		}
		renew = append(renew, renewal{key, epoch})
	}
	deadline := s.now().Add(s.ttl).UnixNano()
	s.mu.Unlock()
	for _, r := range renew {
		if _, err := s.w.Append(journal.Record{
			Key: r.key, Status: journal.StatusClaimed,
			Worker: s.worker, Epoch: r.epoch, Deadline: deadline,
		}); err != nil {
			if s.warn != nil {
				fmt.Fprintf(s.warn, "lease: renewing %q: %v\n", r.key, err)
			}
			return // writer is poisoned; further appends fail the same way
		}
		if s.rec != nil {
			s.rec.Add(obs.MetricCoreLeasesRenewed, 1)
		}
	}
}

// Close releases every still-held lease (best effort — if this fails the
// leases simply expire) and closes the journal writer.
func (s *LeaseStore) Close() error {
	s.mu.Lock()
	keys := make([]string, 0, len(s.held))
	for k := range s.held {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	for _, k := range keys {
		s.Release(k)
	}
	return s.w.Close()
}
