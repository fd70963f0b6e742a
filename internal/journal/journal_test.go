package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lrd/internal/faultinject"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.journal")
}

func mustAppend(t *testing.T, w *Writer, rec Record) int {
	t.Helper()
	n, err := w.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAppendLoadRoundTrip(t *testing.T) {
	path := tmpPath(t)
	w, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	val1, _ := json.Marshal(map[string]float64{"loss": 0.25})
	val2, _ := json.Marshal(map[string]float64{"loss": 0.5})
	n1 := mustAppend(t, w, Record{Key: "a", Status: StatusOK, Value: val1})
	n2 := mustAppend(t, w, Record{Key: "b", Status: StatusFail, Attempt: 2, Error: "boom"})
	n3 := mustAppend(t, w, Record{Key: "b", Status: StatusOK, Value: val2})
	if got := w.Bytes(); got != int64(n1+n2+n3) {
		t.Fatalf("Bytes() = %d, want %d", got, n1+n2+n3)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt() != 0 {
		t.Fatalf("skipped = %d, want 0", stats.Corrupt())
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Key != "a" || recs[0].Status != StatusOK {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Attempt != 2 || recs[1].Error != "boom" {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	done := Completed(recs)
	if len(done) != 2 {
		t.Fatalf("completed = %d keys, want 2", len(done))
	}
	if string(done["b"]) != string(val2) {
		t.Fatalf("completed[b] = %s", done["b"])
	}
}

func TestOpenResumeAppendsVsTruncates(t *testing.T) {
	path := tmpPath(t)
	w, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Key: "a", Status: StatusOK})
	w.Close()

	// Resume: the existing record survives and new ones extend it.
	w, err = Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Key: "b", Status: StatusOK})
	w.Close()
	recs, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("resumed journal has %d records, want 2", len(recs))
	}

	// Fresh open: the journal is truncated.
	w, err = Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Key: "c", Status: StatusOK})
	w.Close()
	recs, _, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != "c" {
		t.Fatalf("truncated journal = %+v", recs)
	}
}

// TestOpenResumeTerminatesTornTail: resuming a journal whose last line was
// torn by a crash must not glue the first new record onto the fragment —
// Open terminates the torn line so the new record survives and the
// fragment is counted as the one corrupt (now interior) line.
func TestOpenResumeTerminatesTornTail(t *testing.T) {
	path := tmpPath(t)
	w, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Key: "a", Status: StatusOK})
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"b","status":"ok","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, err = Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Key: "c", Status: StatusOK})
	w.Close()

	recs, stats, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range recs {
		keys[r.Key] = true
	}
	if !keys["a"] || !keys["c"] {
		t.Fatalf("records after torn-tail resume = %+v (record written after resume was lost)", recs)
	}
	if stats.Corrupt() != 1 {
		t.Fatalf("stats = %+v, want exactly the torn fragment corrupt", stats)
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	recs, stats, err := Load(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || len(recs) != 0 || stats.Corrupt() != 0 {
		t.Fatalf("missing journal: recs=%v stats=%+v err=%v", recs, stats, err)
	}
}

// TestLoadSkipsCorruptLines: truncated trailing lines (the crash case) and
// garbage interior lines are skipped and counted — each kind separately,
// because only the trailing tear is a clean-crash artifact — never fatal,
// and every intact record is preserved.
func TestLoadSkipsCorruptLines(t *testing.T) {
	cases := []struct {
		name     string
		corrupt  string // appended raw after two good records
		interior int
		trailing int
	}{
		{"truncated-tail", `{"key":"c","status":"ok","val`, 0, 1},
		{"garbage-line", "\x00\xff not json at all\n", 0, 1},
		{"non-record-json", `{"loss":1}` + "\n", 0, 1},
		{"empty-lines", "\n\n\n", 0, 0},
		{"two-bad-lines", "garbage\n{\"key\":\"d\",\"status\":\"ok\"}\ntrunc", 1, 1},
		{"interior-only", "garbage\n{\"key\":\"d\",\"status\":\"ok\"}\n", 1, 0},
		{"two-interior", "garbage\nworse\n{\"key\":\"d\",\"status\":\"ok\"}\n", 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpPath(t)
			w, err := Open(path, false)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, w, Record{Key: "a", Status: StatusOK})
			mustAppend(t, w, Record{Key: "b", Status: StatusOK})
			w.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.corrupt); err != nil {
				t.Fatal(err)
			}
			f.Close()

			recs, stats, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if stats.CorruptInterior != tc.interior || stats.CorruptTrailing != tc.trailing {
				t.Fatalf("stats = %+v, want interior %d / trailing %d", stats, tc.interior, tc.trailing)
			}
			keys := map[string]bool{}
			for _, r := range recs {
				keys[r.Key] = true
			}
			if !keys["a"] || !keys["b"] {
				t.Fatalf("intact records lost: %+v", recs)
			}
		})
	}
}

func TestAppendRejectsEmptyKey(t *testing.T) {
	w, err := Open(tmpPath(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(Record{Status: StatusOK}); err == nil {
		t.Fatal("want error for empty key")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w, err := Open(tmpPath(t), false)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Append(Record{Key: "a", Status: StatusOK}); err == nil {
		t.Fatal("want error appending to a closed writer")
	}
}

// TestConcurrentAppends: appends from many goroutines interleave without
// tearing lines (each record stays a valid JSONL line).
func TestConcurrentAppends(t *testing.T) {
	path := tmpPath(t)
	w, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := w.Append(Record{Key: fmt.Sprintf("k%d", i), Status: StatusOK}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	w.Close()
	recs, stats, err := Load(path)
	if err != nil || stats.Corrupt() != 0 {
		t.Fatalf("load: skipped=%d err=%v", stats.Corrupt(), err)
	}
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.tsv")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\nworld\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello\nworld\n" {
		t.Fatalf("content = %q", got)
	}

	// Overwrite succeeds and fully replaces.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v2\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "v2\n" {
		t.Fatalf("overwritten content = %q", got)
	}

	// A failing write callback leaves the previous version intact and no
	// temp litter behind.
	wantErr := fmt.Errorf("sink broke")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return wantErr
	}); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "v2\n" {
		t.Fatalf("failed write clobbered file: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestWriteFileAtomicDirSyncFailure: when the directory fsync after the
// rename fails, the error is reported — the caller must know durability of
// the rename is in doubt — but the rename has already happened, so the file
// on disk is the NEW content, and no temp litter remains.
func TestWriteFileAtomicDirSyncFailure(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "out.tsv")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	faultinject.ArmErr(faultinject.JournalDirSync, func() error {
		return fmt.Errorf("injected dir-sync failure")
	})
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v2\n")
		return err
	})
	faultinject.DisarmErr(faultinject.JournalDirSync)
	if err == nil || !strings.Contains(err.Error(), "injected dir-sync failure") {
		t.Fatalf("err = %v, want injected dir-sync failure", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "v2\n" {
		t.Fatalf("content after failed dir sync = %q, want new version (rename already happened)", got)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestAppendInjectedFailurePoisonsWriter: an injected append failure is
// returned and poisons the writer — later appends fail with the same error
// instead of silently losing durability.
func TestAppendInjectedFailurePoisonsWriter(t *testing.T) {
	defer faultinject.Reset()
	w, err := Open(tmpPath(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mustAppend(t, w, Record{Key: "a", Status: StatusOK})

	faultinject.ArmErr(faultinject.JournalAppend, func() error {
		return fmt.Errorf("injected append failure")
	})
	_, err = w.Append(Record{Key: "b", Status: StatusOK})
	faultinject.DisarmErr(faultinject.JournalAppend)
	if err == nil || !strings.Contains(err.Error(), "injected append failure") {
		t.Fatalf("err = %v, want injected append failure", err)
	}
	// Poisoned: the hook is disarmed but the writer stays broken.
	if _, err := w.Append(Record{Key: "c", Status: StatusOK}); err == nil || !strings.Contains(err.Error(), "injected append failure") {
		t.Fatalf("append after poison: err = %v, want the original failure", err)
	}
}

// TestCompletedEpochFencing: the completion written under the highest
// fencing epoch wins regardless of file order, so a zombie worker whose
// lease was stolen cannot overwrite the new holder's result by appending
// late.
func TestCompletedEpochFencing(t *testing.T) {
	v := func(s string) json.RawMessage { return json.RawMessage(`"` + s + `"`) }
	recs := []Record{
		{Key: "cell", Status: StatusOK, Worker: "w1", Epoch: 1, Value: v("first")},
		{Key: "cell", Status: StatusOK, Worker: "w2", Epoch: 3, Value: v("newest")},
		// Zombie: stale epoch, later in the file. Must lose.
		{Key: "cell", Status: StatusOK, Worker: "w1", Epoch: 2, Value: v("zombie")},
	}
	done := Completed(recs)
	if string(done["cell"]) != `"newest"` {
		t.Fatalf("completed[cell] = %s, want the epoch-3 value", done["cell"])
	}

	// Within an epoch, file order still applies: last wins.
	recs = []Record{
		{Key: "cell", Status: StatusOK, Epoch: 2, Value: v("old")},
		{Key: "cell", Status: StatusOK, Epoch: 2, Value: v("new")},
	}
	if done = Completed(recs); string(done["cell"]) != `"new"` {
		t.Fatalf("same-epoch completed[cell] = %s, want last in file order", done["cell"])
	}

	// A stale-epoch fail cannot invalidate a newer completion; a fail at the
	// winning epoch or later does.
	recs = []Record{
		{Key: "cell", Status: StatusOK, Epoch: 3, Value: v("good")},
		{Key: "cell", Status: StatusFail, Epoch: 2, Error: "zombie fail"},
	}
	if done = Completed(recs); string(done["cell"]) != `"good"` {
		t.Fatalf("stale fail invalidated a newer completion: %v", done)
	}
	recs = append(recs, Record{Key: "cell", Status: StatusFail, Epoch: 3, Error: "real fail"})
	if done = Completed(recs); len(done) != 0 {
		t.Fatalf("fail at winning epoch did not invalidate: %v", done)
	}

	// Claimed records are coordination, never outcomes.
	recs = []Record{
		{Key: "cell", Status: StatusClaimed, Worker: "w1", Epoch: 5, Deadline: 1},
	}
	if done = Completed(recs); len(done) != 0 {
		t.Fatalf("claimed record leaked into completed: %v", done)
	}
}

// TestReadFrom: incremental tail-following consumes only newline-terminated
// lines, leaves an in-flight append for the next call, and counts corrupt
// complete lines.
func TestReadFrom(t *testing.T) {
	path := tmpPath(t)

	// Missing file reads as empty and does not advance the offset.
	recs, corrupt, next, err := ReadFrom(path, 0)
	if err != nil || len(recs) != 0 || corrupt.Total() != 0 || next != 0 {
		t.Fatalf("missing file: recs=%v corrupt=%v next=%d err=%v", recs, corrupt, next, err)
	}

	w, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mustAppend(t, w, Record{Key: "a", Status: StatusOK})
	mustAppend(t, w, Record{Key: "b", Status: StatusClaimed, Worker: "w1", Epoch: 1, Deadline: 99})

	recs, corrupt, next, err = ReadFrom(path, 0)
	if err != nil || corrupt.Total() != 0 {
		t.Fatalf("first read: corrupt=%v err=%v", corrupt, err)
	}
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Worker != "w1" {
		t.Fatalf("first read records = %+v", recs)
	}
	if next != w.Bytes() {
		t.Fatalf("next = %d, want %d (all bytes consumed)", next, w.Bytes())
	}

	// Nothing new: no records, offset unchanged.
	recs, _, next2, err := ReadFrom(path, next)
	if err != nil || len(recs) != 0 || next2 != next {
		t.Fatalf("idle read: recs=%v next=%d err=%v", recs, next2, err)
	}

	// An unterminated tail (append in flight) is left unconsumed...
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","status":"ok"`); err != nil {
		t.Fatal(err)
	}
	recs, _, next2, err = ReadFrom(path, next)
	if err != nil || len(recs) != 0 || next2 != next {
		t.Fatalf("in-flight tail consumed: recs=%v next=%d err=%v", recs, next2, err)
	}
	// ...and consumed once the newline lands.
	if _, err := f.WriteString("}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, corrupt, next, err = ReadFrom(path, next)
	if err != nil || corrupt.Total() != 0 || len(recs) != 1 || recs[0].Key != "c" {
		t.Fatalf("completed tail: recs=%+v corrupt=%v err=%v", recs, corrupt, err)
	}

	// A complete-but-undecodable line is counted corrupt and skipped.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage line\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, corrupt, _, err = ReadFrom(path, next)
	if err != nil || corrupt.Corrupt != 1 || len(recs) != 0 {
		t.Fatalf("corrupt line: recs=%v corrupt=%v err=%v", recs, corrupt, err)
	}
}

// TestOversizedLineSkipped: a complete, well-formed record line longer than
// maxLineBytes is skipped and counted as corrupt by both readers, so a
// resumed sweep and the lease store and fleet view, which tail the journal
// with ReadFrom, agree on what the journal holds.
func TestOversizedLineSkipped(t *testing.T) {
	path := tmpPath(t)
	// A checksum-less (legacy) ok record, padded past the cap by its value.
	big := `{"key":"big","status":"ok","value":"` + strings.Repeat("x", maxLineBytes) + "\"}\n"
	if err := os.WriteFile(path, []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, Record{Key: "small", Status: StatusOK})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := Load(path)
	if err != nil || len(recs) != 1 || recs[0].Key != "small" || stats.CorruptInterior != 1 {
		t.Fatalf("Load: %d records, stats %+v, err %v; want only small and one corrupt line", len(recs), stats, err)
	}
	recs, tail, _, err := ReadFrom(path, 0)
	if err != nil || len(recs) != 1 || recs[0].Key != "small" || tail.Corrupt != 1 {
		t.Fatalf("ReadFrom: %d records, stats %+v, err %v; want only small and one corrupt line", len(recs), tail, err)
	}
}
