package journal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randomStream draws one journal history of the shape the fold's rules
// care about: one to three keys, workers w1–w3 or none, epochs 0–4, and
// claim deadlines that release (<= 0), have passed, are live, or are far
// off. Every ok record carries a distinct value, so a wrong winner shows.
func randomStream(rng *rand.Rand) []Record {
	now := time.Unix(1_700_000_000, 0)
	deadlines := []int64{0, -1, now.Add(-time.Second).UnixNano(), now.Add(10 * time.Second).UnixNano(), now.Add(time.Hour).UnixNano()}
	workers := []string{"", "w1", "w2", "w3"}
	statuses := []Status{StatusOK, StatusFail, StatusClaimed, StatusClaimed}
	keys := 1 + rng.Intn(3)
	recs := make([]Record, 1+rng.Intn(12))
	for i := range recs {
		rec := Record{
			Key:    fmt.Sprintf("k%d", rng.Intn(keys)),
			Status: statuses[rng.Intn(len(statuses))],
			Worker: workers[rng.Intn(len(workers))],
			Epoch:  int64(rng.Intn(5)),
		}
		switch rec.Status {
		case StatusOK:
			rec.Value = json.RawMessage(fmt.Sprintf(`"v%d"`, i))
		case StatusFail:
			rec.Attempt, rec.Error = 1, "transient"
		case StatusClaimed:
			rec.Deadline = deadlines[rng.Intn(len(deadlines))]
		}
		recs[i] = rec
	}
	return recs
}

// TestFoldMatchesParentReaders: on 10,000 random histories Completed and
// compactRecords, now applying records through Fold, agree with their own
// pre-Fold implementations (completedRef, compactRecordsRef).
func TestFoldMatchesParentReaders(t *testing.T) {
	for seed := 0; seed < 10000; seed++ {
		recs := randomStream(rand.New(rand.NewSource(int64(seed))))
		if got, want := Completed(recs), completedRef(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Completed = %s, reference %s\nrecords: %+v", seed, got, want, recs)
		}
		if got, want := compactRecords(recs), compactRecordsRef(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compactRecords = %+v, reference %+v\nrecords: %+v", seed, got, want, recs)
		}
	}
}

// completedRef is Completed as it stood before Fold, kept verbatim as the
// differential reference.
func completedRef(records []Record) map[string]json.RawMessage {
	type winner struct {
		value json.RawMessage
		epoch int64
	}
	won := make(map[string]winner)
	for _, rec := range records {
		switch rec.Status {
		case StatusOK:
			if w, ok := won[rec.Key]; !ok || rec.Epoch >= w.epoch {
				won[rec.Key] = winner{value: rec.Value, epoch: rec.Epoch}
			}
		case StatusFail:
			if w, ok := won[rec.Key]; ok && rec.Epoch >= w.epoch {
				delete(won, rec.Key)
			}
		}
	}
	done := make(map[string]json.RawMessage, len(won))
	for k, w := range won {
		done[k] = w.value
	}
	return done
}

// compactRecordsRef is compactRecords as it stood before Fold, kept
// verbatim as the differential reference.
func compactRecordsRef(records []Record) []Record {
	type fold struct {
		ok       *Record
		claim    *Record // live lease (Deadline > 0), if any
		maxEpoch int64
	}
	var order []string
	folds := make(map[string]*fold)
	for i := range records {
		rec := &records[i]
		f := folds[rec.Key]
		if f == nil {
			f = &fold{}
			folds[rec.Key] = f
			order = append(order, rec.Key)
		}
		if rec.Epoch > f.maxEpoch {
			f.maxEpoch = rec.Epoch
		}
		switch rec.Status {
		case StatusOK:
			if f.ok == nil || rec.Epoch >= f.ok.Epoch {
				f.ok = rec
				// A completion at or above the claim's epoch consumes it.
				if f.claim != nil && rec.Epoch >= f.claim.Epoch {
					f.claim = nil
				}
			}
		case StatusFail:
			if f.ok != nil && rec.Epoch >= f.ok.Epoch {
				f.ok = nil
			}
		case StatusClaimed:
			if rec.Deadline <= 0 {
				// A release clears the claim only when it comes from the
				// holder at the claim's own epoch.
				if f.claim != nil && f.claim.Worker == rec.Worker && f.claim.Epoch == rec.Epoch {
					f.claim = nil
				}
				continue
			}
			switch {
			case f.claim == nil || rec.Epoch > f.claim.Epoch:
				f.claim = rec
			case rec.Epoch == f.claim.Epoch && rec.Worker == f.claim.Worker:
				if rec.Deadline > f.claim.Deadline { // renewal only extends
					f.claim = rec
				}
			}
		}
	}
	var out []Record
	for _, key := range order {
		f := folds[key]
		switch {
		case f.ok != nil:
			out = append(out, *f.ok)
		case f.claim != nil:
			out = append(out, *f.claim)
		case f.maxEpoch > 0:
			// Only superseded lease history remains: preserve the fencing
			// floor as a released claim so the next claim of this key still
			// outranks every pre-compaction epoch.
			out = append(out, Record{Key: key, Status: StatusClaimed, Epoch: f.maxEpoch})
		}
	}
	return out
}
