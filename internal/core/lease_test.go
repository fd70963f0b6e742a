package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"lrd/internal/faultinject"
	"lrd/internal/journal"
	"lrd/internal/obs"
)

func leasePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "shared.journal")
}

func openLease(t *testing.T, path, worker string, ttl time.Duration) *LeaseStore {
	t.Helper()
	s, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: worker, TTL: ttl, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOpenLeaseStoreValidation(t *testing.T) {
	path := leasePath(t)
	if _, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "", TTL: time.Second}); err == nil {
		t.Fatal("want error for empty worker id")
	}
	if _, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "w1", TTL: 0}); err == nil {
		t.Fatal("want error for zero TTL")
	}
	if _, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "w1", TTL: -time.Second}); err == nil {
		t.Fatal("want error for negative TTL")
	}
}

// TestLeaseAcquireStoreAdopt: worker 1 leases and completes a cell; worker
// 2's Acquire on the same key adopts the completed value instead of
// leasing.
func TestLeaseAcquireStoreAdopt(t *testing.T) {
	path := leasePath(t)
	w1 := openLease(t, path, "w1", time.Minute)
	w2 := openLease(t, path, "w2", time.Minute)
	ctx := context.Background()

	_, acquired, err := w1.Acquire(ctx, "cell")
	if err != nil || !acquired {
		t.Fatalf("w1 acquire: acquired=%t err=%v", acquired, err)
	}
	if err := w1.Store("cell", map[string]int{"x": 7}); err != nil {
		t.Fatal(err)
	}
	raw, acquired, err := w2.Acquire(ctx, "cell")
	if err != nil || acquired {
		t.Fatalf("w2 acquire: acquired=%t err=%v", acquired, err)
	}
	var got map[string]int
	if err := json.Unmarshal(raw, &got); err != nil || got["x"] != 7 {
		t.Fatalf("adopted value = %s (err %v)", raw, err)
	}
	// Lookup agrees.
	if raw, ok := w2.Lookup("cell"); !ok || string(raw) != `{"x":7}` {
		t.Fatalf("lookup = %q, %t", raw, ok)
	}
}

// TestLeaseBlocksWhileHeld: a second worker's Acquire blocks while the
// first holds a live lease and adopts as soon as the holder completes.
func TestLeaseBlocksWhileHeld(t *testing.T) {
	path := leasePath(t)
	w1 := openLease(t, path, "w1", time.Minute)
	w2 := openLease(t, path, "w2", time.Minute)
	ctx := context.Background()

	if _, acquired, err := w1.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatalf("w1 acquire: acquired=%t err=%v", acquired, err)
	}

	type result struct {
		raw      json.RawMessage
		acquired bool
		err      error
	}
	resCh := make(chan result, 1)
	go func() {
		raw, acquired, err := w2.Acquire(ctx, "cell")
		resCh <- result{raw, acquired, err}
	}()
	select {
	case r := <-resCh:
		t.Fatalf("w2 acquire returned while lease held: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if err := w1.Store("cell", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-resCh:
		if r.err != nil || r.acquired || string(r.raw) != "42" {
			t.Fatalf("w2 adopt: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("w2 acquire did not unblock after completion")
	}
}

// TestLeaseAcquireHonorsContext: a worker blocked on another's lease
// returns promptly with the context error when canceled.
func TestLeaseAcquireHonorsContext(t *testing.T) {
	path := leasePath(t)
	w1 := openLease(t, path, "w1", time.Minute)
	w2 := openLease(t, path, "w2", time.Minute)
	if _, acquired, err := w1.Acquire(context.Background(), "cell"); err != nil || !acquired {
		t.Fatalf("w1 acquire: acquired=%t err=%v", acquired, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := w2.Acquire(ctx, "cell"); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestLeaseSimultaneousClaim: two workers racing Acquire on one key —
// exactly one wins the lease; after it completes, the loser adopts.
func TestLeaseSimultaneousClaim(t *testing.T) {
	path := leasePath(t)
	w1 := openLease(t, path, "w1", time.Minute)
	w2 := openLease(t, path, "w2", time.Minute)
	ctx := context.Background()

	var mu sync.Mutex
	winners := 0
	var wg sync.WaitGroup
	for _, s := range []*LeaseStore{w1, w2} {
		wg.Add(1)
		go func(s *LeaseStore) {
			defer wg.Done()
			raw, acquired, err := s.Acquire(ctx, "cell")
			if err != nil {
				t.Error(err)
				return
			}
			if acquired {
				mu.Lock()
				winners++
				mu.Unlock()
				if err := s.Store("cell", s.worker); err != nil {
					t.Error(err)
				}
				return
			}
			var adopted string
			if err := json.Unmarshal(raw, &adopted); err != nil {
				t.Errorf("adopted value %s: %v", raw, err)
			}
		}(s)
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
	// The journal agrees with itself on a re-open.
	fresh := openLease(t, path, "w3", time.Minute)
	if _, ok := fresh.Lookup("cell"); !ok {
		t.Fatal("completed cell missing on fresh fold")
	}
}

// fakeClock is a settable wall clock shared between lease stores.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLeaseStealAfterExpiryAndFencing is the straggler/zombie scenario:
// worker 1 leases a cell and stalls past its TTL; worker 2 steals the
// lease at a higher fencing epoch and completes the cell; worker 1 wakes
// up and completes it anyway — and its stale-epoch write must lose
// everywhere: in both workers' live state and in a cold journal replay.
func TestLeaseStealAfterExpiryAndFencing(t *testing.T) {
	path := leasePath(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rec1, rec2 := obs.NewRegistry(), obs.NewRegistry()
	w1, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "w1", TTL: time.Second, Poll: time.Millisecond, Recorder: rec1})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "w2", TTL: time.Second, Poll: time.Millisecond, Recorder: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w1.now, w2.now = clock.now, clock.now

	ctx := context.Background()
	if _, acquired, err := w1.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatalf("w1 acquire: acquired=%t err=%v", acquired, err)
	}
	// w1 stalls: no renewal, the lease expires.
	clock.advance(2 * time.Second)
	if _, acquired, err := w2.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatalf("w2 steal: acquired=%t err=%v", acquired, err)
	}
	if got := rec2.CounterValue(obs.MetricCoreLeasesStolen); got != 1 {
		t.Fatalf("stolen counter = %v, want 1", got)
	}
	if err := w2.Store("cell", "winner"); err != nil {
		t.Fatal(err)
	}
	// Zombie w1 finishes anyway — after the thief completed.
	if err := w1.Store("cell", "zombie"); err != nil {
		t.Fatal(err)
	}
	if got := rec1.CounterValue(obs.MetricCoreLeasesFenced); got != 1 {
		t.Fatalf("fenced counter = %v, want 1", got)
	}
	for name, s := range map[string]*LeaseStore{"w1": w1, "w2": w2} {
		raw, ok := s.Lookup("cell")
		if !ok || string(raw) != `"winner"` {
			t.Fatalf("%s lookup = %q, %t — zombie write overwrote the newer result", name, raw, ok)
		}
	}
	// Cold replay agrees: the fold is epoch-fenced, not last-write-wins.
	recs, stats, err := journal.Load(path)
	if err != nil || stats.Corrupt() != 0 {
		t.Fatalf("load: stats=%+v err=%v", stats, err)
	}
	if got := journal.Completed(recs); string(got["cell"]) != `"winner"` {
		t.Fatalf("cold replay = %s, want the epoch-2 value", got["cell"])
	}
}

// TestLeaseRenewAfterExpiryLosesFencingRace: a holder whose lease was
// stolen while it stalled must not resurrect it via heartbeat renewal —
// renewHeld detects the theft, drops the lease, and the eventual
// stale-epoch completion is fenced.
func TestLeaseRenewAfterExpiryLosesFencingRace(t *testing.T) {
	path := leasePath(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rec1 := obs.NewRegistry()
	w1, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "w1", TTL: time.Second, Poll: time.Millisecond, Recorder: rec1})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: "w2", TTL: time.Second, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w1.now, w2.now = clock.now, clock.now

	ctx := context.Background()
	if _, acquired, err := w1.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatal("w1 acquire failed")
	}
	clock.advance(2 * time.Second)
	if _, acquired, err := w2.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatal("w2 steal failed")
	}
	// w1 wakes up and tries to renew: it must notice the theft and drop the
	// lease rather than extend a dead claim.
	w1.renewHeld()
	if got := rec1.CounterValue(obs.MetricCoreLeasesFenced); got != 1 {
		t.Fatalf("fenced counter after renew = %v, want 1", got)
	}
	w1.mu.Lock()
	_, stillHeld := w1.held["cell"]
	w1.mu.Unlock()
	if stillHeld {
		t.Fatal("w1 still believes it holds a stolen lease")
	}
	if err := w2.Store("cell", "winner"); err != nil {
		t.Fatal(err)
	}
	if err := w1.Store("cell", "zombie"); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := journal.Completed(recs); string(got["cell"]) != `"winner"` {
		t.Fatalf("completed = %s, want the thief's value", got["cell"])
	}
}

// TestLeaseReleaseMakesCellImmediatelyClaimable: an explicit release lets
// another worker claim the cell at a higher epoch without waiting out the
// TTL.
func TestLeaseReleaseMakesCellImmediatelyClaimable(t *testing.T) {
	path := leasePath(t)
	w1 := openLease(t, path, "w1", time.Hour) // TTL far beyond the test
	w2 := openLease(t, path, "w2", time.Hour)
	ctx := context.Background()

	if _, acquired, err := w1.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatal("w1 acquire failed")
	}
	if err := w1.Release("cell"); err != nil {
		t.Fatal(err)
	}
	if _, acquired, err := w2.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatalf("w2 acquire after release: acquired=%t err=%v", acquired, err)
	}
	w2.mu.Lock()
	epoch := w2.held["cell"]
	w2.mu.Unlock()
	if epoch != 2 {
		t.Fatalf("epoch after release-reclaim = %d, want 2", epoch)
	}
	// Releasing a lease we do not hold is a no-op.
	if err := w1.Release("cell"); err != nil {
		t.Fatal(err)
	}
	w2.mu.Lock()
	defer w2.mu.Unlock()
	if err := w2.refreshLocked(); err != nil {
		t.Fatal(err)
	}
	if c := w2.cells.Cell("cell").Claim; c == nil || c.Worker != "w2" {
		t.Fatalf("w1's stale release disturbed w2's claim: %+v", c)
	}
}

// TestLeaseHeartbeatKeepsLeaseAlive: with the heartbeat running, a lease
// outlives many TTLs; with renewal stalled by fault injection, it expires
// and is stolen.
func TestLeaseHeartbeatKeepsLeaseAlive(t *testing.T) {
	defer faultinject.Reset()
	path := leasePath(t)
	ttl := 100 * time.Millisecond
	w1 := openLease(t, path, "w1", ttl)
	w2 := openLease(t, path, "w2", ttl)
	ctx := context.Background()

	if _, acquired, err := w1.Acquire(ctx, "cell"); err != nil || !acquired {
		t.Fatal("w1 acquire failed")
	}
	stop := w1.StartHeartbeat(ctx)
	defer stop()

	// Well past several TTLs, the lease must still be live: w2 cannot get
	// the cell.
	waitCtx, cancel := context.WithTimeout(ctx, 4*ttl)
	_, _, err := w2.Acquire(waitCtx, "cell")
	cancel()
	if err != context.DeadlineExceeded {
		t.Fatalf("w2 acquired (err=%v) despite live heartbeat", err)
	}

	// Stall the heartbeat: renewals are skipped, the lease expires, w2
	// steals.
	faultinject.ArmErr(faultinject.LeaseRenew, func() error {
		return fmt.Errorf("injected renew stall")
	})
	stealCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, acquired, err := w2.Acquire(stealCtx, "cell"); err != nil || !acquired {
		t.Fatalf("w2 steal after stalled heartbeat: acquired=%t err=%v", acquired, err)
	}
}

// TestLeaseChaosInProcess: N workers, one of which "dies" holding leases,
// race through a grid of cells sharing one journal. Every cell must end
// with exactly the deterministic value of its one winning computation, and
// a cold replay must agree with every live worker.
func TestLeaseChaosInProcess(t *testing.T) {
	path := leasePath(t)
	const cells = 24
	ttl := 150 * time.Millisecond
	ctx := context.Background()

	key := func(i int) string { return fmt.Sprintf("cell-%02d", i) }
	value := func(i int) string { return fmt.Sprintf("v-%02d", i) } // deterministic: same from any worker

	// The dying worker grabs a handful of leases and never completes or
	// renews them — the in-process stand-in for SIGKILL.
	dead := openLease(t, path, "dead", ttl)
	for i := 0; i < 6; i++ {
		if _, acquired, err := dead.Acquire(ctx, key(i)); err != nil || !acquired {
			t.Fatalf("dead worker acquire %d: acquired=%t err=%v", i, acquired, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		worker := fmt.Sprintf("w%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := OpenLeaseStore(path, LeaseStoreOptions{Worker: worker, TTL: ttl, Poll: 5 * time.Millisecond})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			stop := s.StartHeartbeat(ctx)
			defer stop()
			for i := 0; i < cells; i++ {
				raw, acquired, err := s.Acquire(ctx, key(i))
				if err != nil {
					t.Errorf("%s acquire %d: %v", worker, i, err)
					return
				}
				if acquired {
					if err := s.Store(key(i), value(i)); err != nil {
						t.Errorf("%s store %d: %v", worker, i, err)
						return
					}
				} else if string(raw) != fmt.Sprintf("%q", value(i)) {
					t.Errorf("%s adopted %d = %s, want %q", worker, i, raw, value(i))
				}
			}
		}()
	}
	wg.Wait()

	recs, stats, err := journal.Load(path)
	if err != nil || stats.Corrupt() != 0 {
		t.Fatalf("load: stats=%+v err=%v", stats, err)
	}
	done := journal.Completed(recs)
	if len(done) != cells {
		t.Fatalf("completed = %d cells, want %d", len(done), cells)
	}
	for i := 0; i < cells; i++ {
		if string(done[key(i)]) != fmt.Sprintf("%q", value(i)) {
			t.Fatalf("cell %d = %s", i, done[key(i)])
		}
	}
}

// TestRunCellWithLeaseStore wires the lease store through the sweep
// engine's runCell: one config computes the cell under a lease; a second
// config sharing the journal adopts it instead of recomputing.
func TestRunCellWithLeaseStore(t *testing.T) {
	path := leasePath(t)
	w1 := openLease(t, path, "w1", time.Minute)
	w2 := openLease(t, path, "w2", time.Minute)
	ctx := context.Background()

	computes := 0
	compute := func(context.Context) (Point, error) {
		computes++
		return Point{Loss: 0.125, Converged: true}, nil
	}
	cfg1 := SweepConfig{Store: w1, Prefix: "t|"}
	p, err := runCell(ctx, cfg1, "cell", compute)
	if err != nil || p.Loss != 0.125 {
		t.Fatalf("runCell via w1: %+v err=%v", p, err)
	}
	cfg2 := SweepConfig{Store: w2, Prefix: "t|"}
	p, err = runCell(ctx, cfg2, "cell", compute)
	if err != nil || p.Loss != 0.125 {
		t.Fatalf("runCell via w2: %+v err=%v", p, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (second worker must adopt)", computes)
	}
	// No lease lingers: both stores report the cell done and hold nothing.
	for _, s := range []*LeaseStore{w1, w2} {
		s.mu.Lock()
		held := len(s.held)
		s.mu.Unlock()
		if held != 0 {
			t.Fatalf("%s still holds %d lease(s)", s.worker, held)
		}
	}
}

// TestShuffleSurfaceLeased: two workers sharing one journal run the same
// shuffle surface concurrently. Each returns the journal-less surface, and
// the journal completes every cell exactly once, under a lease (epoch ≥ 1).
func TestShuffleSurfaceLeased(t *testing.T) {
	tr := quickTrace(t, 3)
	buffers := []float64{0.05, 0.2, 1}
	blocks := []float64{0.5, 5, math.Inf(1)}
	run := func(cfg SweepConfig) ([]ShufflePoint, error) {
		return ShuffleLossSurface(context.Background(), tr, 0.85, buffers, blocks, rand.New(rand.NewSource(42)), cfg)
	}
	clean, err := run(SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}

	path := leasePath(t)
	stores := []*LeaseStore{openLease(t, path, "w1", time.Minute), openLease(t, path, "w2", time.Minute)}
	got := make([][]ShufflePoint, len(stores))
	errs := make([]error, len(stores))
	var wg sync.WaitGroup
	for w, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = run(SweepConfig{Store: s, Prefix: "t|"})
		}()
	}
	wg.Wait()
	for w := range stores {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w+1, errs[w])
		}
		if !reflect.DeepEqual(got[w], clean) {
			t.Fatalf("worker %d surface differs from the journal-less run:\ngot   %+v\nclean %+v", w+1, got[w], clean)
		}
	}

	recs, stats, err := journal.Load(path)
	if err != nil || stats.Corrupt() != 0 {
		t.Fatalf("load: stats=%+v err=%v", stats, err)
	}
	oks := map[string]int{}
	for _, r := range recs {
		if r.Status != journal.StatusOK {
			continue
		}
		if r.Epoch < 1 {
			t.Errorf("cell %q completed without a lease (epoch %d)", r.Key, r.Epoch)
		}
		oks[r.Key]++
	}
	if len(oks) != len(clean) {
		t.Fatalf("journal completes %d cells, want %d", len(oks), len(clean))
	}
	for key, n := range oks {
		if n != 1 {
			t.Errorf("cell %q has %d ok records, want 1", key, n)
		}
	}
}
