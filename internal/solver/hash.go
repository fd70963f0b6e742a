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
func ConfigHash(cfg Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%g|%g|%d|%g|%s|%g|rev=%d",
		cfg.InitialBins, cfg.MaxBins, cfg.RelGap, cfg.LossFloor,
		cfg.MaxIterations, cfg.StallTol, cfg.MaxDuration, cfg.MassDriftTol,
		solverRevision)
	return strconv.FormatUint(h.Sum64(), 16)
}

// solverRevision numbers the solver's result-changing revisions that no
// Config field records. Bump it with every change that moves results under
// an unchanged Config, such as a new cold start; journals and caches keyed
// by ConfigHash then recompute instead of mixing results of two revisions.
// Revision 1: the cold start's first rung and certified upper start
// (start.go).
const solverRevision = 1
