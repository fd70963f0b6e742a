// Package journal is the durability layer under the repository's long
// sweeps: an append-only JSONL work journal that records one line per
// finished (or failed) sweep cell, fsync'd on every append, plus a loader
// that replays a journal to reconstruct the completed cells after a crash
// or interruption.
//
// The format is deliberately dumb — one self-contained JSON object per
// line — so a journal survives partial writes: a crash can at worst leave
// one truncated trailing line, which Load skips (and counts) instead of
// failing, and every preceding record remains usable. Records are keyed by
// an opaque string the caller derives from the experiment identity, grid
// coordinates, seed, and solver configuration; on conflicting keys the
// record with the highest fencing epoch wins (file order breaks ties), so
// re-running a cell simply supersedes its history and a zombie worker's
// stale completion can never overwrite a newer one.
//
// The journal doubles as a coordinator-free shared work queue: several
// worker processes may hold the same journal open (O_APPEND writes of one
// line each interleave but never tear on POSIX filesystems) and publish
// lease claims as StatusClaimed records. This package defines the record
// shape, the conflict rules every reader applies (Fold: which completion
// won, who holds which lease), and the incremental ReadFrom tail reader
// the workers follow each other with. When to claim, renew or steal a
// lease stays in internal/core.LeaseStore.
//
// The package also provides WriteFileAtomic, the write-temp-then-rename
// helper the CLIs use so a result table on disk is always either the old
// complete file or the new complete file, never a truncated hybrid.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"lrd/internal/faultinject"
)

// Status classifies a journal record.
type Status string

const (
	// StatusOK: the cell finished and Value holds its result. A cell whose
	// solve degraded for a terminal (non-retryable) reason is also recorded
	// as ok — re-running it would deterministically reproduce the same
	// degradation.
	StatusOK Status = "ok"
	// StatusFail: an attempt at the cell failed; Error holds the message.
	// Failed cells are informational — a resumed run recomputes them.
	StatusFail Status = "fail"
	// StatusClaimed: a worker holds (or renews, or releases) a lease on the
	// cell. Worker identifies the holder, Epoch is the claim's fencing
	// epoch, and Deadline is the lease expiry in UnixNano; a claimed record
	// with Deadline <= 0 releases the lease. Claims are coordination
	// records, invisible to Completed.
	StatusClaimed Status = "claimed"
)

// Record is one journal line: the outcome of one attempt at one sweep
// cell, or a lease-coordination event. Key identifies the cell (experiment
// id, grid coordinates, seed, and solver-config hash, composed by the
// caller); Value carries the cell's serialized result for ok records;
// Error and Attempt describe failures; Worker, Epoch, and Deadline carry
// the lease protocol (see StatusClaimed and internal/core.LeaseStore).
type Record struct {
	Key     string          `json:"key"`
	Status  Status          `json:"status"`
	Attempt int             `json:"attempt,omitempty"`
	Value   json.RawMessage `json:"value,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Worker is the id of the worker that wrote the record (claimed records
	// always; ok/fail records written under a lease).
	Worker string `json:"worker,omitempty"`
	// Epoch is the fencing epoch of the lease the record was written under.
	// Every re-lease of a cell increments it, so records from a superseded
	// (zombie) holder carry a visibly stale epoch and lose every conflict.
	Epoch int64 `json:"epoch,omitempty"`
	// Deadline is the lease expiry as UnixNano wall-clock time (claimed
	// records only). Renewals only ever extend it; <= 0 releases the lease.
	Deadline int64 `json:"deadline,omitempty"`
	// Crc is the CRC32C (Castagnoli) checksum of the record's JSON encoding
	// with this field zeroed (see Checksum). Append stamps it automatically;
	// Load and ReadFrom verify it and refuse to trust a record whose bytes
	// decoded cleanly but whose content was damaged — the failure mode a
	// torn-tail check cannot see. Zero means "absent" (legacy journals are
	// trusted as-is), which sacrifices the 1-in-2³² record whose true
	// checksum is zero to keep old journals replayable.
	Crc uint32 `json:"crc,omitempty"`
}

// crcTable is the Castagnoli polynomial table; CRC32C has hardware support
// on amd64/arm64 and better error-detection spread than IEEE for short
// records like ours.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes rec's CRC32C: the checksum of the record's JSON
// encoding with the Crc field zeroed. The encoding is canonical for a
// given record value (encoding/json field order is fixed and RawMessage
// bytes pass through verbatim), so decode→Checksum reproduces the value
// Append stamped.
func Checksum(rec Record) uint32 {
	rec.Crc = 0
	b, err := json.Marshal(rec)
	if err != nil {
		return 0
	}
	return crc32.Checksum(b, crcTable)
}

// verified reports whether rec's checksum matches its content. Records
// without one (legacy journals) are trusted as-is.
func verified(rec Record) bool {
	return rec.Crc == 0 || rec.Crc == Checksum(rec)
}

// Writer appends records to a journal file, fsync'ing after every append
// so a record, once Append returns, survives a crash of the process or
// the machine. Writers are safe for concurrent use.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	bytes int64
	err   error
}

// Open opens (creating if needed) the journal at path. With resume true
// existing records are preserved and new appends extend the file; with
// resume false the journal is truncated and starts fresh.
//
// A resumed journal whose final line was torn by a crash (no trailing
// newline) is terminated before the first append: without this, the first
// new record would be glued onto the torn fragment and both would be lost
// as one undecodable line. With it, the fragment becomes an ordinary
// corrupt line that Load skips and counts.
func Open(path string, resume bool) (*Writer, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if resume {
		if err := terminateTornTail(path, f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Writer{f: f}, nil
}

// terminateTornTail appends a newline to f if the file at path is
// non-empty and does not end in one (the signature of a line torn by a
// crash mid-append). f must be open O_APPEND.
func terminateTornTail(path string, f *os.File) error {
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: opening %s to inspect tail: %w", path, err)
	}
	defer r.Close()
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	if size == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := r.ReadAt(last, size-1); err != nil {
		return fmt.Errorf("journal: reading tail of %s: %w", path, err)
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return fmt.Errorf("journal: terminating torn tail of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s after tail repair: %w", path, err)
	}
	return nil
}

// Append marshals rec onto one JSONL line, writes it, and fsyncs the
// file. It returns the number of bytes appended. After any write or sync
// error the writer is poisoned: every later Append returns the same error
// rather than silently losing durability.
func (w *Writer) Append(rec Record) (int, error) {
	if rec.Key == "" {
		return 0, errors.New("journal: record key must be non-empty")
	}
	if rec.Crc == 0 {
		rec.Crc = Checksum(rec)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("journal: encoding record %q: %w", rec.Key, err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.f == nil {
		return 0, errors.New("journal: writer is closed")
	}
	if err := faultinject.ApplyErr(faultinject.JournalAppend); err != nil {
		w.err = fmt.Errorf("journal: appending record %q: %w", rec.Key, err)
		return 0, w.err
	}
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("journal: appending record %q: %w", rec.Key, err)
		return 0, w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: syncing after record %q: %w", rec.Key, err)
		return 0, w.err
	}
	w.bytes += int64(len(line))
	return len(line), nil
}

// Bytes returns the number of journal bytes appended through this writer
// (not counting pre-existing records of a resumed journal).
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Close closes the underlying file. Further Appends fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// LoadStats classifies the undecodable lines a replay skipped. The two
// kinds have very different meanings: a corrupt *trailing* line is the
// expected signature of a crash mid-append (the write tore, nothing after
// it exists) and is fully tolerated; a corrupt *interior* line — garbage
// with intact records after it — means something other than a clean crash
// damaged the journal (disk corruption, a torn concurrent write, manual
// editing), which is still recoverable cell-by-cell but worth surfacing
// loudly and counting separately.
type LoadStats struct {
	// CorruptInterior counts undecodable lines that are followed by at
	// least one valid record.
	CorruptInterior int
	// CorruptTrailing counts the undecodable final line (0 or 1): the
	// tolerated crash-window artifact.
	CorruptTrailing int
	// CrcMismatch counts records that decoded cleanly but failed their
	// CRC32C check — content damage a structural parse cannot see. They are
	// skipped (the cells recompute) and never trusted, wherever they sit in
	// the file.
	CrcMismatch int
	// Quarantined counts damaged lines LoadAndQuarantine preserved in the
	// .quarantine sidecar (always 0 for plain Load).
	Quarantined int
	// NextOffset is the byte offset just past the last line Load processed
	// (the file size when the journal ends in a newline). An incremental
	// follower can hand it to ReadFrom to continue where the replay ended.
	NextOffset int64
}

// Corrupt returns the total number of undecodable skipped lines
// (CRC-mismatched records are counted separately in CrcMismatch).
func (s LoadStats) Corrupt() int { return s.CorruptInterior + s.CorruptTrailing }

// Load replays the journal at path and returns its records in file order,
// together with stats on the lines that could not be decoded. A missing
// file is an empty journal, not an error — resuming a sweep that never
// started is a fresh start.
//
// Corrupt lines — a trailing line truncated by a crash, or interior
// garbage — are skipped and counted (interior and trailing separately, see
// LoadStats), never fatal: the caller recomputes those cells, which is
// always safe. Only I/O errors are returned.
func Load(path string) (records []Record, stats LoadStats, err error) {
	records, stats, _, err = load(path)
	return records, stats, err
}

// QuarantineSuffix is appended to a journal's path to name its sidecar of
// preserved damaged lines.
const QuarantineSuffix = ".quarantine"

// LoadAndQuarantine is Load plus evidence preservation: every damaged line
// that would otherwise be silently skipped — interior corruption and
// CRC-mismatched records, but not the tolerated torn trailing line — is
// appended to the path+QuarantineSuffix sidecar before the replay
// continues without it. The sidecar write is best-effort (a journal replay
// must never fail because the quarantine could not be written) and
// deduplicated, so repeated resumes of the same damaged journal do not
// grow it. stats.Quarantined reports how many lines were newly preserved.
func LoadAndQuarantine(path string) (records []Record, stats LoadStats, err error) {
	records, stats, bad, err := load(path)
	if err != nil || len(bad) == 0 {
		return records, stats, err
	}
	stats.Quarantined = quarantine(path+QuarantineSuffix, bad)
	return records, stats, nil
}

// maxLineBytes bounds a single journal line; anything longer is treated as
// corrupt rather than decoded (a defensive cap — real records are < 1 KiB).
const maxLineBytes = 16 * 1024 * 1024

// lineKind classifies one non-blank journal line.
type lineKind int

const (
	lineRecord      lineKind = iota // a decoded record whose checksum holds
	lineCorrupt                     // undecodable, incomplete, or over maxLineBytes
	lineCrcMismatch                 // decoded, but its checksum fails
)

// decodeLine decodes one trimmed, non-blank journal line, the one rule
// Load and ReadFrom share for which lines to trust.
func decodeLine(line []byte) (Record, lineKind) {
	var rec Record
	if len(line) > maxLineBytes || json.Unmarshal(line, &rec) != nil || rec.Key == "" || rec.Status == "" {
		return Record{}, lineCorrupt
	}
	if !verified(rec) {
		return Record{}, lineCrcMismatch
	}
	return rec, lineRecord
}

// load is the shared replay: records plus classified stats plus the
// damaged lines themselves (interior corruption and CRC mismatches, in
// file order) for callers that quarantine.
func load(path string) (records []Record, stats LoadStats, bad [][]byte, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, LoadStats{}, nil, nil
		}
		return nil, LoadStats{}, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	// trailingCorrupt tracks whether the most recent non-blank line was
	// undecodable: if that holds at EOF the line is the tolerated torn-tail
	// crash artifact, not interior damage.
	trailingCorrupt := false
	for off := 0; off < len(buf); {
		lineEnd, next := len(buf), len(buf)
		if nl := bytes.IndexByte(buf[off:], '\n'); nl >= 0 {
			lineEnd, next = off+nl, off+nl+1
		}
		line := bytes.TrimSpace(buf[off:lineEnd])
		off = next
		stats.NextOffset = int64(next)
		if len(line) == 0 {
			continue
		}
		rec, kind := decodeLine(line)
		trailingCorrupt = kind == lineCorrupt
		switch kind {
		case lineCorrupt:
			stats.CorruptInterior++
			bad = append(bad, line)
		case lineCrcMismatch:
			// Structurally valid but content-damaged: never a torn-tail
			// artifact (truncation cannot produce well-formed JSON with a
			// checksum field), so it is damage wherever it sits.
			stats.CrcMismatch++
			bad = append(bad, line)
		default:
			records = append(records, rec)
		}
	}
	if trailingCorrupt {
		stats.CorruptInterior--
		stats.CorruptTrailing = 1
		// The torn tail is an expected crash signature, not quarantine
		// material, and Open(resume) will terminate it in place.
		bad = bad[:len(bad)-1]
	}
	return records, stats, bad, nil
}

// quarantine appends lines to the sidecar at path, skipping lines the
// sidecar already holds, and returns how many were newly written. All
// failures are swallowed: quarantining is evidence preservation, never a
// reason to fail the replay that triggered it.
func quarantine(path string, lines [][]byte) (written int) {
	seen := make(map[string]bool)
	if prev, err := os.ReadFile(path); err == nil {
		for _, l := range bytes.Split(prev, []byte{'\n'}) {
			if l = bytes.TrimSpace(l); len(l) > 0 {
				seen[string(l)] = true
			}
		}
	}
	var f *os.File
	for _, line := range lines {
		if seen[string(line)] {
			continue
		}
		seen[string(line)] = true
		if f == nil {
			var err error
			f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return written
			}
			defer f.Close()
		}
		// Copy before appending the newline: line aliases the journal buffer.
		entry := make([]byte, 0, len(line)+1)
		entry = append(append(entry, line...), '\n')
		if _, err := f.Write(entry); err != nil {
			return written
		}
		written++
	}
	if f != nil {
		f.Sync()
	}
	return written
}

// TailStats classifies the lines an incremental ReadFrom skipped:
// complete-but-undecodable garbage, and records whose CRC32C check failed.
// A tailer never quarantines (every fleet member tails the same file, and
// N workers appending the same evidence N times helps no one) — the
// journal's opener does that once via LoadAndQuarantine.
type TailStats struct {
	// Corrupt counts complete lines that could not be decoded.
	Corrupt int
	// CrcMismatch counts records that decoded but failed their checksum.
	CrcMismatch int
}

// Total returns the number of skipped lines.
func (s TailStats) Total() int { return s.Corrupt + s.CrcMismatch }

// ReadFrom incrementally reads the records appended to the journal at path
// since offset (a value previously returned by ReadFrom, or 0). Only
// complete lines — terminated by a newline — are consumed: a trailing line
// still being written by another worker is left for the next call, so next
// always points at a line boundary. Complete-but-undecodable lines and
// CRC-mismatched records are skipped and counted in stats. A missing file
// reads as empty.
//
// This is the tail-following primitive of the shared-journal work queue:
// each worker appends through its own Writer and observes every other
// worker's claims and completions by periodically ReadFrom-ing the shared
// file.
func ReadFrom(path string, offset int64) (records []Record, stats TailStats, next int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, TailStats{}, offset, nil
		}
		return nil, TailStats{}, offset, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, TailStats{}, offset, fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		return nil, TailStats{}, offset, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	// Consume only up to the last newline; an unterminated tail is an
	// append in flight, not corruption.
	end := bytes.LastIndexByte(buf, '\n')
	if end < 0 {
		return nil, TailStats{}, offset, nil
	}
	next = offset + int64(end) + 1
	for _, line := range bytes.Split(buf[:end+1], []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		switch rec, kind := decodeLine(line); kind {
		case lineCorrupt:
			stats.Corrupt++
		case lineCrcMismatch:
			stats.CrcMismatch++
		default:
			records = append(records, rec)
		}
	}
	return records, stats, next, nil
}

// Completed folds records (see Fold) into the per-key outcome a resumed
// sweep should trust: the value of each key's winning ok record. The
// record written under the highest lease epoch wins regardless of file
// order, so a zombie worker that appends a stale completion after its
// lease was stolen can never overwrite the newer holder's result.
func Completed(records []Record) map[string]json.RawMessage {
	var f Fold
	for _, rec := range records {
		f.Apply(rec)
	}
	done := make(map[string]json.RawMessage, f.Completed())
	f.Range(func(key string, c Cell) bool {
		if c.OK != nil {
			done[key] = c.OK.Value
		}
		return true
	})
	return done
}

// WriteFileAtomic writes the output of write to path atomically: the
// content lands in a temporary file in the same directory, is fsync'd, is
// renamed over path only on success, and the parent directory is fsync'd
// after the rename so the new directory entry itself survives a power
// loss — without it, a crash in the window after rename could resurface
// the old file (or no file) even though the rename "succeeded". Readers
// therefore never observe a truncated or partially written file, and a
// crash mid-write leaves any previous version of path intact. On error the
// temporary file is removed.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: creating temp file for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("journal: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("journal: closing temp file for %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: renaming into %s: %w", path, err)
	}
	// Persist the rename itself: without the directory fsync the new entry
	// lives only in the page cache and a power loss can undo it. The
	// rename has already happened — on a sync error path IS the new file
	// (the cleanup deferral's remove of the now-gone temp name is a no-op);
	// only the entry's durability is in doubt, and that doubt is reported.
	if serr := syncDir(dir); serr != nil {
		return fmt.Errorf("journal: syncing directory of %s after rename: %w", path, serr)
	}
	return nil
}

// syncDir fsyncs a directory. Filesystems that refuse directory fsync
// outright (EINVAL/ENOTSUP) are tolerated — there is nothing further the
// writer can do there and the data file itself is already durable — but
// any other failure is reported.
func syncDir(dir string) error {
	if err := faultinject.ApplyErr(faultinject.JournalDirSync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
