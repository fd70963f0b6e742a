package solver_test

import (
	"math"
	"testing"

	"lrd/internal/core"
	"lrd/internal/solver"
)

// BenchmarkCertifyTheta measures the certification of a cold upper start's
// θ, which every cold solve of a bounded epoch law pays once: one op
// certifies one of the nine finite-cutoff columns of the paper's Fig. 4
// grid (MTVModel(1), util 0.8, b = 1 s), in turn. The two columns with the
// longest cutoffs fall below certFloor there and are declined after one
// evaluation of the bound.
func BenchmarkCertifyTheta(b *testing.B) {
	tm, err := core.MTVModel(1)
	if err != nil {
		b.Fatal(err)
	}
	var columns []solver.Model
	for i := 0; i < 9; i++ {
		cutoff := 0.05 * math.Pow(100/0.05, float64(i)/8)
		ref, err := tm.Source(cutoff)
		if err != nil {
			b.Fatal(err)
		}
		q, err := solver.NewQueueNormalized(ref, 0.8, 1)
		if err != nil {
			b.Fatal(err)
		}
		columns = append(columns, q.Model())
	}
	certified := 0
	for _, m := range columns {
		if solver.CertifyTheta(m) > 0 {
			certified++
		}
	}
	if certified != 7 {
		b.Fatalf("%d of 9 columns certified, want 7", certified)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.CertifyTheta(columns[i%len(columns)])
	}
}
