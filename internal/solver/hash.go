package solver

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// ConfigHash returns a short stable hash of the configuration fields that
// influence solve results. It is the cache key component shared by the
// sweep journal (internal/core prefixes journal keys with it so a journal
// written under one configuration is never replayed into a run with
// another) and the serving layer's solve cache (internal/serve keys cached
// responses by it so two requests share a cached result only when their
// solver settings are result-identical).
//
// Recorder and Trace are deliberately excluded: instrumentation never
// changes results (the bit-identity tests in internal/obs enforce that),
// so an observed solve and an unobserved one share a hash. MaxDuration is
// included — callers that want budget-independent keys (a converged result
// does not depend on how much budget was left) should zero it before
// hashing. The hash also covers solverRevision, so results computed by
// solver arithmetic that no Config field describes are not replayed either.
// The three 0 slots once held the loss-floor, stall and mass-drift
// tolerances, which are fixed constants (see solver.go); printing the 0
// those unset fields printed keeps every earlier hash valid.
func ConfigHash(cfg Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%g|0|%d|0|%s|0|rev=%d",
		cfg.InitialBins, cfg.MaxBins, cfg.RelGap,
		cfg.MaxIterations, cfg.MaxDuration, solverRevision)
	return strconv.FormatUint(h.Sum64(), 16)
}

// solverRevision numbers the solver's result-changing revisions that no
// Config field records. Bump it with every change that moves results under
// an unchanged Config, such as a new cold start; journals and caches keyed
// by ConfigHash then recompute instead of mixing results of two revisions.
// A change that moves only degraded results, such as where an
// out-of-resolution solve stops, keeps the revision: a journaled degraded
// cell of either revision is still a valid bracket.
// Revision 1: the cold start's first rung and certified upper start
// (start.go). Revision 2: the paired-transform step, whose end bins are
// exact sums (Iterator.stepRaw). Revision 3: the step's forward transforms
// run decimation in frequency, with no permutation (fft.Pair). Revision 4:
// the cdf and loss tables are built in one pass from one law evaluation
// per point, the truncated Pareto's power taken as exp∘log (gridTables).
// Revision 5: the solve loop attempts certified jumps toward each bound's
// fixed point (jump.go).
const solverRevision = 5
