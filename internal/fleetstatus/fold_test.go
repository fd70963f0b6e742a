package fleetstatus

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"lrd/internal/journal"
)

// randomStream draws one shared-journal history: one to three keys,
// workers w1–w3 or none, epochs 0–4, and claim deadlines that release
// (<= 0), have passed, are live, or are far off.
func randomStream(rng *rand.Rand) []journal.Record {
	deadlines := []int64{0, -1, deadline(-time.Second), deadline(10 * time.Second), deadline(time.Hour)}
	workers := []string{"", "w1", "w2", "w3"}
	statuses := []journal.Status{journal.StatusOK, journal.StatusFail, journal.StatusClaimed, journal.StatusClaimed}
	keys := 1 + rng.Intn(3)
	recs := make([]journal.Record, 1+rng.Intn(12))
	for i := range recs {
		rec := journal.Record{
			Key:    fmt.Sprintf("k%d", rng.Intn(keys)),
			Status: statuses[rng.Intn(len(statuses))],
			Worker: workers[rng.Intn(len(workers))],
			Epoch:  int64(rng.Intn(5)),
		}
		switch rec.Status {
		case journal.StatusOK:
			rec.Value = json.RawMessage(fmt.Sprintf(`"v%d"`, i))
		case journal.StatusFail:
			rec.Attempt, rec.Error = 1, "transient"
		case journal.StatusClaimed:
			rec.Deadline = deadlines[rng.Intn(len(deadlines))]
		}
		recs[i] = rec
	}
	return recs
}

// reopens reports whether recs hold a fail at or above its key's winning
// completion epoch: the one case in which the pre-Fold fleet view departed
// from the rules resume and the lease store apply.
func reopens(recs []journal.Record) bool {
	won := map[string]int64{}
	for _, rec := range recs {
		epoch, done := won[rec.Key]
		switch {
		case rec.Status == journal.StatusOK && (!done || rec.Epoch >= epoch):
			won[rec.Key] = rec.Epoch
		case rec.Status == journal.StatusFail && done && rec.Epoch >= epoch:
			return true
		}
	}
	return false
}

// TestFleetFoldMatchesParent: on 10,000 random histories the fleet view,
// folding through journal.Fold, reports exactly the Status of its own
// pre-Fold fold (fleetRef) unless a fail at or above the winning epoch
// reopened a cell — the intended change.
func TestFleetFoldMatchesParent(t *testing.T) {
	opts := Options{ExpectedCells: 3, Now: func() time.Time { return fixedNow }}
	path := filepath.Join(t.TempDir(), "absent.journal") // Status refreshes from an empty journal
	var reopened, changed int
	for seed := 0; seed < 10000; seed++ {
		recs := randomStream(rand.New(rand.NewSource(int64(seed))))
		a := New(path, opts)
		ref := &fleetRef{cells: map[string]*cellStateRef{}, workers: map[string]*workerAgg{}}
		for _, rec := range recs {
			a.fold(rec)
			ref.fold(rec)
		}
		got, err := a.Status()
		if err != nil {
			t.Fatal(err)
		}
		want := ref.status(path, opts)
		same := reflect.DeepEqual(got, want)
		if reopens(recs) {
			reopened++
			if !same {
				changed++
			}
			continue
		}
		if !same {
			t.Fatalf("seed %d: Status = %+v, reference %+v\nrecords: %+v", seed, got, want, recs)
		}
	}
	t.Logf("%d of 10000 histories reopen a cell with a fail; the fleet view changed on %d of them", reopened, changed)
}

// fleetRef is Aggregator's fold and Status derivation as they stood before
// journal.Fold, kept verbatim (its types renamed) as the differential
// reference.
type fleetRef struct {
	cells   map[string]*cellStateRef
	workers map[string]*workerAgg
}

// claimRef is one live lease reconstructed from the journal.
type claimRef struct {
	worker   string
	epoch    int64
	deadline int64 // UnixNano
}

// cellStateRef is the folded state of one journal key.
type cellStateRef struct {
	done     bool
	wonEpoch int64
	claim    *claimRef
}

func (a *fleetRef) worker(name string) *workerAgg {
	w := a.workers[name]
	if w == nil {
		w = &workerAgg{}
		a.workers[name] = w
	}
	return w
}

func (a *fleetRef) cell(key string) *cellStateRef {
	c := a.cells[key]
	if c == nil {
		c = &cellStateRef{}
		a.cells[key] = c
	}
	return c
}

func (a *fleetRef) fold(rec journal.Record) {
	c := a.cell(rec.Key)
	switch rec.Status {
	case journal.StatusOK:
		if c.done && rec.Epoch < c.wonEpoch {
			return // zombie completion, fenced off
		}
		if !c.done {
			a.worker(rec.Worker).completed++
		}
		c.done, c.wonEpoch, c.claim = true, rec.Epoch, nil
	case journal.StatusFail:
		a.worker(rec.Worker).failures++
	case journal.StatusClaimed:
		if c.done {
			return // stale claim on a finished cell
		}
		if rec.Deadline <= 0 {
			// Release: only the current holder's release clears the claim.
			if c.claim != nil && c.claim.worker == rec.Worker && c.claim.epoch == rec.Epoch {
				c.claim = nil
				a.worker(rec.Worker).released++
			}
			return
		}
		switch {
		case c.claim == nil:
			a.worker(rec.Worker).claimed++
			c.claim = &claimRef{worker: rec.Worker, epoch: rec.Epoch, deadline: rec.Deadline}
		case c.claim.worker == rec.Worker && c.claim.epoch == rec.Epoch:
			// Heartbeat renewal: deadlines only ever extend.
			if rec.Deadline > c.claim.deadline {
				c.claim.deadline = rec.Deadline
			}
			a.worker(rec.Worker).renewed++
		case rec.Epoch > c.claim.epoch:
			// A newer fencing epoch supersedes the live claim — a steal when
			// the previous holder was someone else (it let the lease expire).
			if c.claim.worker != rec.Worker {
				a.worker(rec.Worker).stolen++
			}
			a.worker(rec.Worker).claimed++
			c.claim = &claimRef{worker: rec.Worker, epoch: rec.Epoch, deadline: rec.Deadline}
		}
		// An equal-or-older epoch from another worker lost the claim race;
		// the file-order winner already holds the cell.
	}
}

// status is Aggregator.Status's derivation over the reference fold, for a
// journal with no corrupt lines and no reopens.
func (a *fleetRef) status(path string, opts Options) Status {
	now := opts.Now()
	s := Status{
		Journal:       path,
		UnixMs:        now.UnixMilli(),
		CellsExpected: opts.ExpectedCells,
	}
	type liveAgg struct {
		live        int
		minRemain   float64
		hasStraggle bool
	}
	live := map[string]*liveAgg{}
	for _, c := range a.cells {
		if c.done {
			s.CellsDone++
			continue
		}
		if c.claim == nil {
			continue
		}
		s.CellsInFlight++
		la := live[c.claim.worker]
		if la == nil {
			la = &liveAgg{minRemain: math.Inf(1)}
			live[c.claim.worker] = la
		}
		la.live++
		remain := time.Duration(c.claim.deadline - now.UnixNano()).Seconds()
		if remain < la.minRemain {
			la.minRemain = remain
		}
		if remain < 0 {
			la.hasStraggle = true
		}
	}
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
	return s
}
