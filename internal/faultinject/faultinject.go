// Package faultinject provides hook-based fault injection for the numeric
// and durability hot paths of the library. Production code calls Apply
// (data corruption) or ApplyErr (injected failures) at named fault points;
// tests Arm/ArmErr a function at a point to prove that the downstream
// guards detect the fault they claim to detect.
//
// When nothing is armed, Apply and ApplyErr cost a single atomic load, so
// fault points are safe to leave in solver inner loops and journal append
// paths. All operations are safe for concurrent use; armed faults may fire
// from multiple goroutines at once, so fault functions must themselves be
// reentrant (pure slice edits are; error constructors are).
//
// The package is intended for tests only. Nothing in the library arms a
// fault on its own, and a released binary with no armed faults behaves
// identically to one compiled without the hooks.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Point names a fault-injection site. Each site documents the slice its
// corruption function receives.
type Point string

const (
	// SolverConvolution fires on each bound process's raw stepped pmf of
	// every Lindley step (length M+1: bin 0, the transform's window, then
	// bin M), before clamping and renormalization.
	SolverConvolution Point = "solver/convolution"
	// SolverIncrementPMF fires on each freshly built rounded-increment pmf
	// (once for the lower-rounded law, once for the upper). The corruption
	// function receives the pmf of length 2M+1.
	SolverIncrementPMF Point = "solver/increment-pmf"
	// SolverLossBounds fires after each Lindley step on the pair
	// {lower, upper} of freshly evaluated loss bounds, before the solver's
	// invariant checks. The corruption function receives a 2-element slice.
	SolverLossBounds Point = "solver/loss-bounds"
)

// Error-injection points (see ArmErr/ApplyErr). These fire on durability
// and coordination paths, where the interesting fault is a failure, not a
// corrupted buffer.
const (
	// JournalAppend fires at the top of every journal record append. An
	// injected error is returned as the append's write error, poisoning the
	// writer exactly as a failed disk write would.
	JournalAppend Point = "journal/append"
	// JournalDirSync fires on the parent-directory fsync that seals an
	// atomic file replacement (journal.WriteFileAtomic). An injected error
	// models a power-loss-window fsync failure.
	JournalDirSync Point = "journal/dir-sync"
	// LeaseRenew fires at the top of every lease renewal append
	// (core.LeaseStore). An injected error models a stalled or partitioned
	// worker whose heartbeats stop landing in the shared journal.
	LeaseRenew Point = "core/lease-renew"
)

var (
	armedCount atomic.Int32 // fast-path gate: number of armed points

	mu       sync.RWMutex
	hooks    = map[Point]func([]float64){}
	errHooks = map[Point]func() error{}
	fires    = map[Point]int{}
)

// Arm installs f as the corruption function at point p, replacing any
// previous one. f runs synchronously inside the instrumented hot path.
func Arm(p Point, f func([]float64)) {
	if f == nil {
		Disarm(p)
		return
	}
	mu.Lock()
	if _, ok := hooks[p]; !ok {
		armedCount.Add(1)
	}
	hooks[p] = f
	mu.Unlock()
}

// Disarm removes the corruption function at point p, if any.
func Disarm(p Point) {
	mu.Lock()
	if _, ok := hooks[p]; ok {
		armedCount.Add(-1)
		delete(hooks, p)
	}
	mu.Unlock()
}

// ArmErr installs f as the error-injection function at point p, replacing
// any previous one. f runs synchronously inside the instrumented path;
// returning a non-nil error makes the fault point fail with it. A nil f
// disarms the point; an armed f returning nil means "fault armed but not
// firing this call" (useful for fail-once behaviors).
func ArmErr(p Point, f func() error) {
	if f == nil {
		DisarmErr(p)
		return
	}
	mu.Lock()
	if _, ok := errHooks[p]; !ok {
		armedCount.Add(1)
	}
	errHooks[p] = f
	mu.Unlock()
}

// DisarmErr removes the error-injection function at point p, if any.
func DisarmErr(p Point) {
	mu.Lock()
	if _, ok := errHooks[p]; ok {
		armedCount.Add(-1)
		delete(errHooks, p)
	}
	mu.Unlock()
}

// Reset disarms every point and clears the fire counters.
func Reset() {
	mu.Lock()
	armedCount.Add(-int32(len(hooks) + len(errHooks)))
	hooks = map[Point]func([]float64){}
	errHooks = map[Point]func() error{}
	fires = map[Point]int{}
	mu.Unlock()
}

// Active reports whether any fault point is armed. It is the cheap guard
// instrumented code may use to skip work when nothing is armed.
func Active() bool { return armedCount.Load() != 0 }

// Apply invokes the corruption function armed at p, if any, on xs.
// With nothing armed anywhere it returns after one atomic load.
func Apply(p Point, xs []float64) {
	if armedCount.Load() == 0 {
		return
	}
	mu.RLock()
	f := hooks[p]
	mu.RUnlock()
	if f == nil {
		return
	}
	f(xs)
	mu.Lock()
	fires[p]++
	mu.Unlock()
}

// ApplyErr invokes the error-injection function armed at p, if any, and
// returns its error. With nothing armed anywhere it returns nil after one
// atomic load, so the hook is safe on durability hot paths.
func ApplyErr(p Point) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.RLock()
	f := errHooks[p]
	mu.RUnlock()
	if f == nil {
		return nil
	}
	err := f()
	mu.Lock()
	fires[p]++
	mu.Unlock()
	return err
}

// Fired returns how many times the fault at p has fired since the last
// Reset. Tests use it to assert that an armed fault actually executed.
func Fired(p Point) int {
	mu.RLock()
	defer mu.RUnlock()
	return fires[p]
}
