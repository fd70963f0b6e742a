package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lrd/internal/fleetstatus"
	"lrd/internal/journal"
	"lrd/internal/obs"
)

// randomLeaseStream draws one shared-journal history: one to three keys,
// workers w1–w3 or none, epochs 0–4, and claim deadlines that release
// (<= 0), have passed, are live, or are far off.
func randomLeaseStream(rng *rand.Rand, now time.Time) []journal.Record {
	deadlines := []int64{0, -1, now.Add(-time.Second).UnixNano(), now.Add(10 * time.Second).UnixNano(), now.Add(time.Hour).UnixNano()}
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

// TestLeaseFoldMatchesParent: on 10,000 random histories the lease store,
// folding through journal.Fold, reaches the same done values, live claims
// and epochs as its own pre-Fold fold (leaseFoldRef) — and the fleet view
// of the same journal reports exactly the lease store's done and in-flight
// cells.
func TestLeaseFoldMatchesParent(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	path := filepath.Join(t.TempDir(), "stream.journal")
	for seed := 0; seed < 10000; seed++ {
		recs := randomLeaseStream(rand.New(rand.NewSource(int64(seed))), now)
		ref := &leaseFoldRef{done: map[string]leaseDoneRef{}, claims: map[string]leaseClaimRef{}, epochs: map[string]int64{}}
		s := &LeaseStore{}
		for _, rec := range recs {
			ref.foldLocked(rec)
			s.foldLocked(rec)
		}
		done, claims, epochs := leaseState(s)
		if !reflect.DeepEqual(done, ref.done) || !reflect.DeepEqual(claims, ref.claims) || !reflect.DeepEqual(epochs, ref.epochs) {
			t.Fatalf("seed %d: lease state %v %v %v, reference %v %v %v\nrecords: %+v",
				seed, done, claims, epochs, ref.done, ref.claims, ref.epochs, recs)
		}

		var buf bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := fleetstatus.New(path, fleetstatus.Options{Now: func() time.Time { return now }}).Status()
		if err != nil {
			t.Fatal(err)
		}
		inFlight := 0
		for key := range claims {
			if _, ok := done[key]; !ok {
				inFlight++
			}
		}
		if st.CellsDone != len(done) || st.CellsInFlight != inFlight {
			t.Fatalf("seed %d: fleet view %d done / %d in flight, lease store %d / %d\nrecords: %+v",
				seed, st.CellsDone, st.CellsInFlight, len(done), inFlight, recs)
		}
	}
}

// leaseState flattens the store's fold into leaseFoldRef's three maps.
func leaseState(s *LeaseStore) (map[string]leaseDoneRef, map[string]leaseClaimRef, map[string]int64) {
	done, claims, epochs := map[string]leaseDoneRef{}, map[string]leaseClaimRef{}, map[string]int64{}
	s.cells.Range(func(key string, c journal.Cell) bool {
		if c.OK != nil {
			done[key] = leaseDoneRef{value: c.OK.Value, epoch: c.OK.Epoch}
		}
		if c.Claim != nil {
			claims[key] = leaseClaimRef{worker: c.Claim.Worker, epoch: c.Claim.Epoch, deadline: c.Claim.Deadline}
		}
		if c.MaxEpoch > 0 {
			epochs[key] = c.MaxEpoch
		}
		return true
	})
	return done, claims, epochs
}

// leaseFoldRef is the lease store's fold as it stood before journal.Fold,
// kept verbatim (its types renamed) as the differential reference.
type leaseFoldRef struct {
	rec    obs.Recorder
	done   map[string]leaseDoneRef  // winning completion per cell
	claims map[string]leaseClaimRef // live claim per cell
	epochs map[string]int64         // highest epoch ever seen per cell
}

type leaseDoneRef struct {
	value json.RawMessage
	epoch int64
}

type leaseClaimRef struct {
	worker   string
	epoch    int64
	deadline int64 // UnixNano
}

func (s *leaseFoldRef) foldLocked(rec journal.Record) {
	if rec.Epoch > s.epochs[rec.Key] {
		s.epochs[rec.Key] = rec.Epoch
		if s.rec != nil {
			s.rec.Set(obs.MetricCoreLeaseEpoch, float64(rec.Epoch))
		}
	}
	switch rec.Status {
	case journal.StatusOK:
		if cur, ok := s.done[rec.Key]; !ok || rec.Epoch >= cur.epoch {
			s.done[rec.Key] = leaseDoneRef{value: rec.Value, epoch: rec.Epoch}
			// The completion consumes any claim it supersedes.
			if c, ok := s.claims[rec.Key]; ok && rec.Epoch >= c.epoch {
				delete(s.claims, rec.Key)
			}
		}
		// Else: a fenced zombie write — counted by whoever observes it.
		// (Our own fenced completions are counted at Store time.)
	case journal.StatusFail:
		if cur, ok := s.done[rec.Key]; ok && rec.Epoch >= cur.epoch {
			delete(s.done, rec.Key)
		}
	case journal.StatusClaimed:
		cur, ok := s.claims[rec.Key]
		switch {
		case rec.Deadline <= 0:
			// Release: only the holder at the claim's own epoch may release.
			if ok && cur.worker == rec.Worker && cur.epoch == rec.Epoch {
				delete(s.claims, rec.Key)
			}
		case !ok || rec.Epoch > cur.epoch:
			s.claims[rec.Key] = leaseClaimRef{worker: rec.Worker, epoch: rec.Epoch, deadline: rec.Deadline}
		case rec.Epoch == cur.epoch && rec.Worker == cur.worker:
			// Renewal: deadlines only ever extend.
			if rec.Deadline > cur.deadline {
				cur.deadline = rec.Deadline
				s.claims[rec.Key] = cur
			}
			// Equal-epoch claims from a different worker lose by file order:
			// the fold keeps the first, ignores the rest.
		}
	}
}
