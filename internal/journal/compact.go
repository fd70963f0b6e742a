package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// CompactStats reports what Compact did: the record and byte counts before
// and after the rewrite, plus the replay stats of the journal it read
// (whose Quarantined field counts damaged lines preserved in the sidecar —
// compaction is also how a damaged journal is healed, since the rewrite
// drops the bad lines the sidecar now holds).
type CompactStats struct {
	RecordsIn   int
	RecordsOut  int
	BytesBefore int64
	BytesAfter  int64
	Load        LoadStats
}

// Reclaimed returns the bytes the rewrite freed (never negative).
func (s CompactStats) Reclaimed() int64 {
	if d := s.BytesBefore - s.BytesAfter; d > 0 {
		return d
	}
	return 0
}

// Compact rewrites the journal at path to its folded equivalent state:
// one record per key instead of that key's whole history. It applies the
// records through Fold, then keeps for each key the winning ok record, or
// the live lease claim if the key is still in flight, or — when only
// superseded history remains — a released claim carrying the key's highest
// observed fencing epoch, so post-compaction claims still fence out any
// zombie holding a pre-compaction lease. Fail records and damaged lines
// are dropped (damaged lines are first preserved in the .quarantine
// sidecar); every surviving record is re-stamped with a fresh CRC. The
// rewrite is atomic (WriteFileAtomic), so a crash mid-compaction leaves
// the original journal intact.
//
// Compact must not race live appenders of the same journal: a writer
// holding the old inode open would keep appending to the unlinked file and
// lose those records. Compact a fleet journal only when the fleet is
// quiesced.
func Compact(path string) (CompactStats, error) {
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return CompactStats{}, nil
		}
		return CompactStats{}, fmt.Errorf("journal: compacting %s: %w", path, err)
	}
	records, loadStats, err := LoadAndQuarantine(path)
	if err != nil {
		return CompactStats{}, err
	}
	stats := CompactStats{
		RecordsIn:   len(records),
		BytesBefore: fi.Size(),
		Load:        loadStats,
	}
	out := compactRecords(records)
	stats.RecordsOut = len(out)
	err = WriteFileAtomic(path, func(w io.Writer) error {
		for _, rec := range out {
			rec.Crc = 0
			rec.Crc = Checksum(rec)
			line, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("journal: encoding record %q: %w", rec.Key, err)
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	if fi, err := os.Stat(path); err == nil {
		stats.BytesAfter = fi.Size()
	}
	return stats, nil
}

// compactRecords folds a journal's history to one record per key (see
// Compact). Keys appear in first-seen file order, so compaction is
// deterministic.
func compactRecords(records []Record) []Record {
	var f Fold
	for _, rec := range records {
		f.Apply(rec)
	}
	var out []Record
	f.Range(func(key string, c Cell) bool {
		switch {
		case c.OK != nil:
			out = append(out, *c.OK)
		case c.Claim != nil:
			out = append(out, *c.Claim)
		case c.MaxEpoch > 0:
			// Only superseded lease history remains: preserve the fencing
			// floor as a released claim so the next claim of this key still
			// outranks every pre-compaction epoch.
			out = append(out, Record{Key: key, Status: StatusClaimed, Epoch: c.MaxEpoch})
		}
		return true
	})
	return out
}
