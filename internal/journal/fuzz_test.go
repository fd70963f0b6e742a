package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalLoad throws arbitrary bytes at the journal replay path and
// checks its crash-recovery contract: Load never panics, never reports more
// than one tolerated torn tail, never reads past the file, is idempotent,
// and a journal reopened for appending after any damage accepts and
// replays a fresh record. Whatever decoded must also keep the fold's
// invariants: compaction preserves every completed value and is a fixed
// point on its own output, and a Fold counts exactly Completed's cells.
func FuzzJournalLoad(f *testing.F) {
	// A genuine record (correct CRC) produced by the real writer, plus the
	// classic damage shapes around it.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.journal")
	w, err := Open(seedPath, false)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Append(Record{Key: "k", Status: StatusOK, Value: []byte(`{"loss":1e-6}`)}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not json at all\n"))
	f.Add(append(bytes.Repeat(valid, 2), valid[:len(valid)/2]...)) // torn tail
	f.Add(bytes.Replace(valid, []byte("1e-6"), []byte("2e-6"), 1)) // CRC mismatch
	f.Add([]byte("{\"key\":\"a\",\"status\":\"ok\"}\n\n\n"))
	// A zombie's completion after its lease was stolen, then a failed
	// attempt by the thief: the cell is open again, under the thief's lease.
	f.Add([]byte(`{"key":"c","status":"claimed","worker":"victim","epoch":1,"deadline":1}
{"key":"c","status":"claimed","worker":"thief","epoch":2,"deadline":4102444800000000000}
{"key":"c","status":"ok","value":"stale","worker":"victim","epoch":1}
{"key":"c","status":"fail","error":"transient","worker":"thief","epoch":2}
`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, stats, err := Load(path)
		if err != nil {
			t.Fatalf("Load returned a non-I/O error on arbitrary bytes: %v", err)
		}
		if stats.CorruptTrailing > 1 {
			t.Fatalf("more than one torn tail: %+v", stats)
		}
		if stats.NextOffset < 0 || stats.NextOffset > int64(len(data)) {
			t.Fatalf("NextOffset %d outside [0, %d]", stats.NextOffset, len(data))
		}
		done := Completed(recs)
		compacted := compactRecords(recs)
		if got := Completed(compacted); !reflect.DeepEqual(got, done) {
			t.Fatalf("compaction changed the completed cells: %s, want %s", got, done)
		}
		if again := compactRecords(compacted); !reflect.DeepEqual(again, compacted) {
			t.Fatalf("compaction is not a fixed point: %+v, then %+v", compacted, again)
		}
		var fold Fold
		for _, rec := range recs {
			fold.Apply(rec)
		}
		if fold.Completed() != len(done) {
			t.Fatalf("Fold counts %d completed cells, Completed %d", fold.Completed(), len(done))
		}

		recs2, stats2, err := Load(path)
		if err != nil || len(recs2) != len(recs) || stats2 != stats {
			t.Fatalf("replay not idempotent: %d/%+v vs %d/%+v (err %v)",
				len(recs), stats, len(recs2), stats2, err)
		}

		// Crash recovery: reopening for append (which newline-terminates any
		// torn tail) and writing one record must yield exactly one more
		// replayable record — the damage never swallows the new append.
		w, err := Open(path, true)
		if err != nil {
			t.Fatalf("Open(resume) after damage: %v", err)
		}
		if _, err := w.Append(Record{Key: "recovered", Status: StatusOK, Value: []byte(`{}`)}); err != nil {
			t.Fatalf("append after damage: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs3, _, err := Load(path)
		if err != nil || len(recs3) != len(recs)+1 {
			t.Fatalf("after recovery append: %d records (err %v), want %d", len(recs3), err, len(recs)+1)
		}
	})
}
