package solver_test

import (
	"slices"
	"testing"

	"lrd/internal/solver"
)

// TestJumpCertificateSound: over the accuracy cases, every jump candidate a
// cold solve keeps passes an independent dense check — it is a pmf, and a
// sub-fixed point (lower) or super-fixed point (upper) of the dense
// bounded Lindley step within a few ulps·M — and every candidate it drops
// leaves its process's iterate as it was. Each process must see both
// outcomes, or its half of the check would be vacuous.
func TestJumpCertificateSound(t *testing.T) {
	var accepted, rejected [2]int // lower, upper
	for _, c := range accuracyCases(t) {
		if c.heavy && testing.Short() {
			continue
		}
		_, err := solver.SolveWatchingJumps(c.m, c.cfg, func(j solver.JumpCheck) {
			k, side := 0, "lower"
			if j.Upper {
				k, side = 1, "upper"
			}
			if !j.Accepted {
				rejected[k]++
				if !slices.Equal(j.Before, j.After) {
					t.Errorf("%s: a rejected %s candidate moved the iterate at M = %d", c.name, side, j.Bins)
				}
				return
			}
			accepted[k]++
			if err := solver.DenseCertified(j.Candidate, j.Increment, j.Upper); err != nil {
				t.Errorf("%s: accepted %s candidate at M = %d: %v", c.name, side, j.Bins, err)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	for k, side := range []string{"lower", "upper"} {
		if accepted[k] == 0 || rejected[k] == 0 {
			t.Errorf("%s: %d candidates accepted and %d rejected: both outcomes must occur", side, accepted[k], rejected[k])
		}
		t.Logf("%s: %d candidates accepted, %d rejected", side, accepted[k], rejected[k])
	}
}
