// Package fleetstatus derives a live fleet view from the shared work
// journal alone. Because the lease protocol (internal/core.LeaseStore)
// writes every claim, renewal, release, and completion as a journal
// record, *any* process that can read the journal can reconstruct who is
// doing what — without talking to the workers. The Aggregator tails the
// journal incrementally (journal.ReadFrom) and applies the records through
// journal.Fold, the conflict rules resume and the lease store use too, so
// its done and in-flight cells are the workers' own. On top of the fold
// it credits per-worker cells claimed/completed/stolen and reports live
// lease deadlines, straggler flags, and grid completion.
//
// It backs `GET /v1/status` on lrdserve and the lrdtop watch surface.
package fleetstatus

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"lrd/internal/journal"
)

// Options configures an Aggregator.
type Options struct {
	// ExpectedCells, when positive, is the full grid size, enabling a real
	// completion percentage (the journal alone cannot know cells that were
	// never attempted).
	ExpectedCells int
	// Now overrides the wall clock (tests). Defaults to time.Now.
	Now func() time.Time
}

// workerAgg accumulates one worker's counters across the fold.
type workerAgg struct {
	claimed   int
	completed int
	stolen    int
	released  int
	renewed   int
	failures  int
}

// Aggregator tails one journal and maintains the folded fleet state. Safe
// for concurrent use; each Refresh reads only the bytes appended since
// the previous one.
type Aggregator struct {
	path string
	opts Options

	mu      sync.Mutex
	offset  int64
	corrupt int
	crcBad  int
	reopens int
	fi      os.FileInfo // identity of the file the offset belongs to
	cells   journal.Fold
	workers map[string]*workerAgg
}

// New returns an Aggregator tailing the journal at path. The journal may
// not exist yet; Refresh treats a missing file as empty.
func New(path string, opts Options) *Aggregator {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Aggregator{
		path:    path,
		opts:    opts,
		workers: map[string]*workerAgg{},
	}
}

// Refresh folds any records appended since the last call. If the journal
// file was atomically replaced since then (compaction renames a rewritten
// file over it) or truncated below the tail offset, the stale fold is
// discarded and the new file re-folded from the start instead of erroring
// out or silently reading garbage at the old offset.
func (a *Aggregator) Refresh() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if fi, err := os.Stat(a.path); err == nil {
		if a.fi != nil && (!os.SameFile(a.fi, fi) || fi.Size() < a.offset) {
			a.resetLocked()
		}
		a.fi = fi
	} else if !os.IsNotExist(err) {
		return err
	}
	records, tail, next, err := journal.ReadFrom(a.path, a.offset)
	if err != nil {
		return err
	}
	a.offset = next
	a.corrupt += tail.Corrupt
	a.crcBad += tail.CrcMismatch
	for _, rec := range records {
		a.fold(rec)
	}
	return nil
}

// resetLocked discards the folded state so the (replaced) journal re-folds
// from offset 0. The reopen count survives as the audit trail.
func (a *Aggregator) resetLocked() {
	a.offset = 0
	a.corrupt = 0
	a.crcBad = 0
	a.reopens++
	a.cells = journal.Fold{}
	a.workers = map[string]*workerAgg{}
}

func (a *Aggregator) worker(name string) *workerAgg {
	w := a.workers[name]
	if w == nil {
		w = &workerAgg{}
		a.workers[name] = w
	}
	return w
}

// fold applies one record through the journal fold and credits its
// writer from the transition: a completion counts only when the cell was
// not done before it, a claim on a done cell counts for nothing, and a
// worker gets a row only once something is credited to it (so a fenced
// zombie with no other records stays invisible).
func (a *Aggregator) fold(rec journal.Record) {
	prev := a.cells.Apply(rec)
	switch rec.Status {
	case journal.StatusOK:
		if prev.OK == nil {
			a.worker(rec.Worker).completed++
		}
	case journal.StatusFail:
		a.worker(rec.Worker).failures++
	case journal.StatusClaimed:
		if prev.OK != nil {
			return // stale claim on a finished cell
		}
		holder := prev.Claim != nil && prev.Claim.Worker == rec.Worker && prev.Claim.Epoch == rec.Epoch
		switch {
		case rec.Deadline <= 0:
			if holder { // only the holder's own release clears the claim
				a.worker(rec.Worker).released++
			}
		case prev.Claim == nil:
			a.worker(rec.Worker).claimed++
		case holder:
			a.worker(rec.Worker).renewed++ // heartbeat renewal
		case rec.Epoch > prev.Claim.Epoch:
			// A newer fencing epoch supersedes the live claim — a steal when
			// the previous holder was someone else (it let the lease expire).
			if prev.Claim.Worker != rec.Worker {
				a.worker(rec.Worker).stolen++
			}
			a.worker(rec.Worker).claimed++
		}
		// An equal-or-older epoch from another worker lost the claim race;
		// the file-order winner already holds the cell.
	}
}

// WorkerStatus is one worker's folded view.
type WorkerStatus struct {
	Worker string `json:"worker"`
	// Claimed counts leases this worker took (first claims and steals).
	Claimed int `json:"cells_claimed"`
	// Completed counts cells whose first completion this worker wrote.
	Completed int `json:"cells_completed"`
	// Stolen counts expired leases this worker took over from a peer.
	Stolen int `json:"leases_stolen"`
	// Released counts leases handed back without completion.
	Released int `json:"leases_released"`
	// Renewed counts heartbeat renewals.
	Renewed int `json:"leases_renewed"`
	// Failures counts failed attempts recorded by this worker.
	Failures int `json:"failed_attempts,omitempty"`
	// LiveLeases is the number of cells this worker currently holds.
	LiveLeases int `json:"live_leases"`
	// MinLeaseRemaining is the seconds until the nearest live lease
	// expires; negative means at least one lease is already expired
	// (meaningful only when LiveLeases > 0).
	MinLeaseRemaining float64 `json:"min_lease_remaining_s"`
	// Straggler is set when the worker holds an expired, unsuperseded
	// lease — it stopped heartbeating and its cells are up for stealing.
	Straggler bool `json:"straggler"`
}

// Status is the fleet-wide snapshot.
type Status struct {
	Journal       string `json:"journal"`
	UnixMs        int64  `json:"unix_ms"`
	CellsDone     int    `json:"cells_completed"`
	CellsInFlight int    `json:"cells_in_flight"`
	CellsExpected int    `json:"cells_expected,omitempty"`
	// CompletionPct is 100·done/expected when the expected grid size is
	// known, else 100·done/(done+inflight) as a lower-bound estimate.
	CompletionPct float64 `json:"completion_pct"`
	Failures      int     `json:"failed_attempts"`
	CorruptLines  int     `json:"corrupt_lines"`
	// CrcMismatches counts records dropped for failing their CRC32C check.
	CrcMismatches int `json:"crc_mismatch_records,omitempty"`
	// JournalReopens counts times the tail detected the journal file was
	// atomically replaced (compaction) or truncated and re-folded it.
	JournalReopens int            `json:"journal_reopens,omitempty"`
	Stragglers     int            `json:"stragglers"`
	Workers        []WorkerStatus `json:"workers"`
}

// Status refreshes from the journal and returns the folded snapshot.
func (a *Aggregator) Status() (Status, error) {
	if err := a.Refresh(); err != nil {
		return Status{}, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.opts.Now()
	s := Status{
		Journal:        a.path,
		UnixMs:         now.UnixMilli(),
		CellsExpected:  a.opts.ExpectedCells,
		CorruptLines:   a.corrupt,
		CrcMismatches:  a.crcBad,
		JournalReopens: a.reopens,
	}
	type liveAgg struct {
		live        int
		minRemain   float64
		hasStraggle bool
	}
	live := map[string]*liveAgg{}
	s.CellsDone = a.cells.Completed()
	a.cells.Range(func(_ string, c journal.Cell) bool {
		if c.OK != nil || c.Claim == nil {
			return true
		}
		s.CellsInFlight++
		la := live[c.Claim.Worker]
		if la == nil {
			la = &liveAgg{minRemain: math.Inf(1)}
			live[c.Claim.Worker] = la
		}
		la.live++
		remain := time.Duration(c.Claim.Deadline - now.UnixNano()).Seconds()
		if remain < la.minRemain {
			la.minRemain = remain
		}
		if remain < 0 {
			la.hasStraggle = true
		}
		return true
	})
	names := make([]string, 0, len(a.workers))
	for name := range a.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := a.workers[name]
		ws := WorkerStatus{
			Worker:    name,
			Claimed:   w.claimed,
			Completed: w.completed,
			Stolen:    w.stolen,
			Released:  w.released,
			Renewed:   w.renewed,
			Failures:  w.failures,
		}
		if la := live[name]; la != nil {
			ws.LiveLeases = la.live
			ws.MinLeaseRemaining = la.minRemain
			ws.Straggler = la.hasStraggle
			if la.hasStraggle {
				s.Stragglers++
			}
		}
		s.Workers = append(s.Workers, ws)
		s.Failures += w.failures
	}
	switch {
	case s.CellsExpected > 0:
		s.CompletionPct = 100 * float64(s.CellsDone) / float64(s.CellsExpected)
	case s.CellsDone+s.CellsInFlight > 0:
		s.CompletionPct = 100 * float64(s.CellsDone) / float64(s.CellsDone+s.CellsInFlight)
	}
	return s, nil
}

// WriteText renders the status as a human-readable table (the lrdtop
// surface).
func (s Status) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "fleet status — journal %s\n", s.Journal)
	fmt.Fprintf(w, "cells: %d completed, %d in flight", s.CellsDone, s.CellsInFlight)
	if s.CellsExpected > 0 {
		fmt.Fprintf(w, ", %d expected", s.CellsExpected)
	}
	fmt.Fprintf(w, " (%.1f%% complete)", s.CompletionPct)
	if s.Failures > 0 {
		fmt.Fprintf(w, ", %d failed attempts", s.Failures)
	}
	if s.CorruptLines > 0 {
		fmt.Fprintf(w, ", %d corrupt lines", s.CorruptLines)
	}
	if s.CrcMismatches > 0 {
		fmt.Fprintf(w, ", %d CRC-mismatched records", s.CrcMismatches)
	}
	if s.JournalReopens > 0 {
		fmt.Fprintf(w, ", %d journal reopen(s)", s.JournalReopens)
	}
	if s.Stragglers > 0 {
		fmt.Fprintf(w, ", %d straggler(s)", s.Stragglers)
	}
	fmt.Fprintln(w)
	if len(s.Workers) == 0 {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "worker\tclaimed\tcompleted\tstolen\treleased\trenewed\tlive\tmin-ttl\tstraggler")
	for _, ws := range s.Workers {
		name := ws.Worker
		if name == "" {
			name = "-"
		}
		minTTL := "-"
		if ws.LiveLeases > 0 {
			minTTL = fmt.Sprintf("%.1fs", ws.MinLeaseRemaining)
		}
		straggler := ""
		if ws.Straggler {
			straggler = "STRAGGLER"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			name, ws.Claimed, ws.Completed, ws.Stolen, ws.Released, ws.Renewed,
			ws.LiveLeases, minTTL, straggler)
	}
	return tw.Flush()
}
