package core

import (
	"context"
	"sort"

	"lrd/internal/obs"
	"lrd/internal/solver"
)

// bufferChains partitions the row-major buffer×cutoff grid (cell i maps to
// buffer i/nc, cutoff i%nc) into per-cutoff chains ordered by ascending
// buffer — the direction the warm-start coupling argument permits. No such
// ordering exists along the cutoff axis (the work increment takes both
// signs), so chains never cross columns.
func bufferChains(buffers []float64, nc int) [][]int {
	order := make([]int, len(buffers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return buffers[order[a]] < buffers[order[b]] })
	chains := make([][]int, nc)
	for c := 0; c < nc; c++ {
		chain := make([]int, len(buffers))
		for k, bi := range order {
			chain[k] = bi*nc + c
		}
		chains[c] = chain
	}
	return chains
}

// gridSweepChained is gridSweep for warm-chained sweeps: each chain's cells
// execute sequentially, threading a warm-start seed from every freshly
// computed cell into its successor; chains run in parallel on the worker
// pool (so the parallelMap scheduling unit — and its started/completed
// telemetry — is a chain, not a cell).
//
// Durability semantics are unchanged: every cell still goes through
// runCell, so journaled cells replay their committed results untouched and
// leases are honored. A replayed (resumed or adopted) cell carries no
// occupancy vectors, so it breaks the chain — the next cell starts cold —
// which is exactly the "warm starts never change committed results, only
// iteration counts" contract.
func gridSweepChained(ctx context.Context, cfg SweepConfig, n int, chains [][]int, key func(int) string, compute func(context.Context, int, *solver.Seed) (Point, *solver.Seed, error)) ([]Point, error) {
	rec := cfg.Solver.Recorder
	out := make([]Point, n)
	cellDone := make([]bool, n) // written by workers, read after the pool drains
	_, err := parallelMap(ctx, rec, cfg.Workers, len(chains), func(ci int) error {
		if rec != nil {
			rec.Add(obs.MetricCoreWarmChains, 1)
		}
		var seed *solver.Seed
		for _, i := range chains[ci] {
			var next *solver.Seed
			p, err := runCell(ctx, cfg, key(i), func(ctx context.Context) (Point, error) {
				pt, ns, cerr := compute(ctx, i, seed)
				next = ns
				return pt, cerr
			})
			if err != nil {
				return err
			}
			out[i] = p
			cellDone[i] = true
			if next == nil && seed != nil && rec != nil {
				rec.Add(obs.MetricCoreWarmChainBreaks, 1)
			}
			seed = next
		}
		return nil
	})
	return completedPoints(out, cellDone), err
}
