package solver

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//  1. the resolution ladder (start coarse, double M with a warm restart —
//     the paper's footnote 3) versus solving cold at the final resolution;
//  2. the step's transform pair (both processes, O(M log M)) versus the
//     direct O(M²) convolution in the per-step Lindley update;
//  3. the 20 % bound-gap target versus tighter targets (cost of accuracy).
//
// Run with: go test ./internal/solver -bench Ablation -benchmem

import (
	"testing"

	"lrd/internal/dist"
	"lrd/internal/fft"
	"lrd/internal/fluid"
)

func ablationQueue(b *testing.B) Queue {
	b.Helper()
	m := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	src, err := fluid.New(m, dist.TruncatedPareto{Theta: 0.05, Alpha: 1.4, Cutoff: 2})
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQueueNormalized(src, 0.8, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkAblationResolutionLadder uses the paper's strategy: start at a
// coarse M and double on stall with a warm restart.
func BenchmarkAblationResolutionLadder(b *testing.B) {
	q := ablationQueue(b)
	cfg := Config{InitialBins: 128, MaxBins: 4096, RelGap: 0.05}
	b.ReportAllocs()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := Solve(q, cfg)
		if err != nil || !res.Converged {
			b.Fatalf("res=%+v err=%v", res, err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "lindley-steps")
}

// BenchmarkAblationColdHighResolution starts directly at the resolution
// the ladder would end at, paying full-size convolutions for the whole
// transient.
func BenchmarkAblationColdHighResolution(b *testing.B) {
	q := ablationQueue(b)
	cfg := Config{InitialBins: 4096, MaxBins: 4096, RelGap: 0.05}
	b.ReportAllocs()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := Solve(q, cfg)
		if err != nil || !res.Converged {
			b.Fatalf("res=%+v err=%v", res, err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "lindley-steps")
}

// warmIterator builds an iterator and advances it until the occupancy
// vectors are dense, so the convolution benchmarks measure the
// steady-state cost rather than the initial delta distribution (whose
// zeros the naive algorithm skips).
func warmIterator(b *testing.B, bins int) *Iterator {
	b.Helper()
	q := ablationQueue(b)
	it, err := NewIterator(q, Config{InitialBins: bins, MaxBins: bins})
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < 50; n++ {
		it.Step()
	}
	return it
}

// BenchmarkAblationStepFFT measures one Lindley step with the production
// kernel (one transform pair for both processes) at M = 2048 on dense
// state.
func BenchmarkAblationStepFFT(b *testing.B) {
	it := warmIterator(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step()
	}
}

// BenchmarkAblationStepNaive measures the step's two convolutions, of the
// same shapes (M+1 ⊛ 2M+1), with the direct O(M²) algorithm — the cost the
// paper's FFT remark avoids.
func BenchmarkAblationStepNaive(b *testing.B) {
	it := warmIterator(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ql := fft.ConvolveRealNaive(it.ql, it.wl)
		qh := fft.ConvolveRealNaive(it.qh, it.wh)
		_ = ql
		_ = qh
	}
}

// BenchmarkAblationGapTargets quantifies the cost of tightening the bound
// gap from the paper's 20 % to 5 % and 1 %.
func BenchmarkAblationGapTargets(b *testing.B) {
	q := ablationQueue(b)
	for _, gap := range []float64{0.2, 0.05, 0.01} {
		gap := gap
		b.Run(gapName(gap), func(b *testing.B) {
			cfg := Config{RelGap: gap}
			b.ReportAllocs()
			var bins int
			for i := 0; i < b.N; i++ {
				res, err := Solve(q, cfg)
				if err != nil || !res.Converged {
					b.Fatalf("res=%+v err=%v", res, err)
				}
				bins = res.Bins
			}
			b.ReportMetric(float64(bins), "final-bins")
		})
	}
}

func gapName(gap float64) string {
	switch gap {
	case 0.2:
		return "gap20pct"
	case 0.05:
		return "gap5pct"
	default:
		return "gap1pct"
	}
}
