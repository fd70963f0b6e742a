package solver

import (
	"sync"

	"lrd/internal/fft"
	"lrd/internal/obs"
)

// scratchPool lends every Iterator its scratch memory — the step's transform
// pair, the step output double-buffers, and the grid tables rebuilt on
// every resolution rung — so successive and concurrent solves recycle it
// instead of reallocating. Every pooled buffer is zeroed or fully
// overwritten before use, so results never depend on what a borrowed set
// last held (the solver golden tests pin this). Scratch goes back to the
// pool only from the Solve* entry points, which own their iterators; an
// Iterator from NewIterator keeps its scratch until it is garbage.
var scratchPool sync.Pool // *arenaScratch

// borrowScratch takes a scratch set from the pool, counting reuse vs. fresh
// allocation on the borrowing solve's recorder.
func borrowScratch(rec obs.Recorder) *arenaScratch {
	if v := scratchPool.Get(); v != nil {
		if rec != nil {
			rec.Add(obs.MetricSolverArenaReuse, 1)
		}
		return v.(*arenaScratch)
	}
	if rec != nil {
		rec.Add(obs.MetricSolverArenaAlloc, 1)
	}
	return &arenaScratch{}
}

// arenaScratch is one solve's worth of reusable memory: the step's
// transform pair (its workspace and the current rung's increment spectra)
// plus a small free list of float64 slices recycled through the resolution
// ladder (increment pmfs and their fold sums, cdf tables, loss tables,
// occupancy vectors). Owned by a single solve at a time.
type arenaScratch struct {
	pair fft.Pair
	free [][]float64
}

// maxFreeSlices bounds the retained free list so a pathological solve cannot
// pin unbounded memory in the pool.
const maxFreeSlices = 16

// getFloat returns a zeroed slice of length n, recycling a free-list entry
// with sufficient capacity when one exists. The zeroing makes recycled
// slices indistinguishable from fresh make() allocations.
func (s *arenaScratch) getFloat(n int) []float64 {
	for i, b := range s.free {
		if cap(b) >= n {
			last := len(s.free) - 1
			s.free[i] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			b = b[:n]
			clear(b)
			return b
		}
	}
	return make([]float64, n)
}

// putFloat hands a dead slice back for recycling. Safe on empty slices;
// drops the slice when the free list is full.
func (s *arenaScratch) putFloat(b []float64) {
	if cap(b) == 0 || len(s.free) >= maxFreeSlices {
		return
	}
	s.free = append(s.free, b)
}
