package fleetstatus

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lrd/internal/journal"
)

// fixedNow pins the aggregator clock so lease-remaining math is exact.
var fixedNow = time.Unix(1_700_000_000, 0)

func writeRecords(t *testing.T, path string, recs []journal.Record) {
	t.Helper()
	w, err := journal.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func newAgg(t *testing.T, recs []journal.Record, opts Options) *Aggregator {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.journal")
	writeRecords(t, path, recs)
	if opts.Now == nil {
		opts.Now = func() time.Time { return fixedNow }
	}
	return New(path, opts)
}

func deadline(d time.Duration) int64 { return fixedNow.Add(d).UnixNano() }

func TestMissingJournalIsEmpty(t *testing.T) {
	a := New(filepath.Join(t.TempDir(), "absent.journal"), Options{Now: func() time.Time { return fixedNow }})
	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 0 || st.CellsInFlight != 0 || len(st.Workers) != 0 {
		t.Fatalf("empty status = %+v", st)
	}
}

// TestFoldLifecycle: claims, renewals, releases, completions, and the
// per-worker counters they produce.
func TestFoldLifecycle(t *testing.T) {
	a := newAgg(t, []journal.Record{
		// w1 claims a, renews it, completes it.
		{Key: "a", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: deadline(time.Second)},
		{Key: "a", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: deadline(2 * time.Second)},
		{Key: "a", Status: journal.StatusOK, Worker: "w1", Epoch: 1},
		// w1 claims b and releases it; w2 picks it up and holds it live.
		{Key: "b", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: deadline(time.Second)},
		{Key: "b", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: 0},
		{Key: "b", Status: journal.StatusClaimed, Worker: "w2", Epoch: 2, Deadline: deadline(30 * time.Second)},
		// w2 logs one failed attempt at b along the way.
		{Key: "b", Status: journal.StatusFail, Worker: "w2", Epoch: 2, Error: "transient"},
	}, Options{ExpectedCells: 4})

	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 1 || st.CellsInFlight != 1 {
		t.Fatalf("done/inflight = %d/%d, want 1/1", st.CellsDone, st.CellsInFlight)
	}
	if st.CompletionPct != 25 {
		t.Fatalf("completion = %g, want 25", st.CompletionPct)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	byName := map[string]WorkerStatus{}
	for _, w := range st.Workers {
		byName[w.Worker] = w
	}
	w1 := byName["w1"]
	if w1.Claimed != 2 || w1.Completed != 1 || w1.Renewed != 1 || w1.Released != 1 || w1.LiveLeases != 0 {
		t.Fatalf("w1 = %+v", w1)
	}
	w2 := byName["w2"]
	if w2.Claimed != 1 || w2.LiveLeases != 1 || w2.Stolen != 0 || w2.Failures != 1 {
		t.Fatalf("w2 = %+v", w2)
	}
	if w2.Straggler || w2.MinLeaseRemaining < 29 || w2.MinLeaseRemaining > 30 {
		t.Fatalf("w2 lease view = straggler %v, remaining %g", w2.Straggler, w2.MinLeaseRemaining)
	}
}

// TestStealAndZombieFencing: an expired lease taken at a higher epoch
// counts as a steal, and a zombie's stale-epoch completion is fenced.
func TestStealAndZombieFencing(t *testing.T) {
	a := newAgg(t, []journal.Record{
		{Key: "c", Status: journal.StatusClaimed, Worker: "victim", Epoch: 1, Deadline: deadline(-time.Second)},
		{Key: "c", Status: journal.StatusClaimed, Worker: "thief", Epoch: 2, Deadline: deadline(time.Minute)},
		{Key: "c", Status: journal.StatusOK, Worker: "thief", Epoch: 2},
		// The victim wakes up and writes its stale result: fenced, not
		// double-counted.
		{Key: "c", Status: journal.StatusOK, Worker: "victim", Epoch: 1},
		// Its stale claim on the finished cell is ignored too.
		{Key: "c", Status: journal.StatusClaimed, Worker: "victim", Epoch: 1, Deadline: deadline(time.Minute)},
	}, Options{})

	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 1 || st.CellsInFlight != 0 {
		t.Fatalf("done/inflight = %d/%d, want 1/0", st.CellsDone, st.CellsInFlight)
	}
	byName := map[string]WorkerStatus{}
	for _, w := range st.Workers {
		byName[w.Worker] = w
	}
	if got := byName["thief"]; got.Stolen != 1 || got.Completed != 1 {
		t.Fatalf("thief = %+v", got)
	}
	if got := byName["victim"]; got.Completed != 0 {
		t.Fatalf("victim credited with a fenced completion: %+v", got)
	}
	if st.CompletionPct != 100 {
		t.Fatalf("completion = %g, want 100 (1 done, 0 in flight, no expected)", st.CompletionPct)
	}
}

// TestStragglerFlag: a live lease past its deadline marks the worker.
func TestStragglerFlag(t *testing.T) {
	a := newAgg(t, []journal.Record{
		{Key: "d", Status: journal.StatusClaimed, Worker: "slow", Epoch: 1, Deadline: deadline(-5 * time.Second)},
	}, Options{})
	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stragglers != 1 {
		t.Fatalf("stragglers = %d, want 1", st.Stragglers)
	}
	if len(st.Workers) != 1 || !st.Workers[0].Straggler || st.Workers[0].MinLeaseRemaining >= 0 {
		t.Fatalf("workers = %+v", st.Workers)
	}
}

// TestIncrementalRefresh: a second Status() folds only appended bytes.
func TestIncrementalRefresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	writeRecords(t, path, []journal.Record{
		{Key: "a", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: deadline(time.Minute)},
	})
	a := New(path, Options{Now: func() time.Time { return fixedNow }})
	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsInFlight != 1 || st.CellsDone != 0 {
		t.Fatalf("first fold = %+v", st)
	}
	writeRecords(t, path, []journal.Record{
		{Key: "a", Status: journal.StatusOK, Worker: "w1", Epoch: 1},
	})
	st, err = a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 1 || st.CellsInFlight != 0 {
		t.Fatalf("incremental fold = %+v", st)
	}
}

// TestCorruptLinesCounted: torn garbage is surfaced, not fatal.
func TestCorruptLinesCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	writeRecords(t, path, []journal.Record{
		{Key: "a", Status: journal.StatusOK, Worker: "w1", Epoch: 1},
	})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{torn garbage\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a := New(path, Options{Now: func() time.Time { return fixedNow }})
	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptLines != 1 || st.CellsDone != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestWriteText(t *testing.T) {
	a := newAgg(t, []journal.Record{
		{Key: "a", Status: journal.StatusClaimed, Worker: "w1", Epoch: 1, Deadline: deadline(time.Minute)},
		{Key: "a", Status: journal.StatusOK, Worker: "w1", Epoch: 1},
		{Key: "b", Status: journal.StatusClaimed, Worker: "w2", Epoch: 1, Deadline: deadline(-time.Second)},
	}, Options{ExpectedCells: 2})
	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"1 completed, 1 in flight, 2 expected",
		"(50.0% complete)",
		"1 straggler(s)",
		"STRAGGLER",
		"w1", "w2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q:\n%s", want, text)
		}
	}
}

// TestFailAfterZombieCompletionReopensCell: a zombie's stale completion
// followed by a failed attempt from the lease holder leaves the cell open
// under the holder's live lease — as resume and every worker see it — and
// the holder's own completion then finishes it.
func TestFailAfterZombieCompletionReopensCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	recs := []journal.Record{
		{Key: "c", Status: journal.StatusClaimed, Worker: "victim", Epoch: 1, Deadline: deadline(-time.Second)},
		{Key: "c", Status: journal.StatusClaimed, Worker: "thief", Epoch: 2, Deadline: deadline(time.Minute)},
		{Key: "c", Status: journal.StatusOK, Worker: "victim", Epoch: 1, Value: []byte(`"stale"`)},
		{Key: "c", Status: journal.StatusFail, Worker: "thief", Epoch: 2, Error: "transient"},
	}
	writeRecords(t, path, recs)
	a := New(path, Options{ExpectedCells: 1, Now: func() time.Time { return fixedNow }})
	st, err := a.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 0 || st.CellsInFlight != 1 || st.CompletionPct != 0 {
		t.Fatalf("after the fail: %d done, %d in flight, %g%%; want 0, 1, 0%%", st.CellsDone, st.CellsInFlight, st.CompletionPct)
	}
	if done := journal.Completed(recs); len(done) != 0 {
		t.Fatalf("journal.Completed = %s, want empty", done)
	}

	writeRecords(t, path, []journal.Record{
		{Key: "c", Status: journal.StatusOK, Worker: "thief", Epoch: 2, Value: []byte(`"fresh"`)},
	})
	if st, err = a.Status(); err != nil {
		t.Fatal(err)
	}
	if st.CellsDone != 1 || st.CellsInFlight != 0 || st.CompletionPct != 100 {
		t.Fatalf("after the thief's completion: %d done, %d in flight, %g%%; want 1, 0, 100%%", st.CellsDone, st.CellsInFlight, st.CompletionPct)
	}
}
