package obs

import (
	"math"
	"testing"
)

// TestHistogramQuantiles: the log₂-bucket quantile estimates must be
// ordered, clamped to the observed [Min, Max], and exact when every
// observation lands in one bucket.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Observe("one_bucket", 1.5)
	}
	hs, ok := r.HistogramSnapshotFor("one_bucket")
	if !ok {
		t.Fatal("histogram missing")
	}
	// All mass in one bucket: interpolation clamps to Min == Max == 1.5.
	if hs.P50 != 1.5 || hs.P90 != 1.5 || hs.P99 != 1.5 {
		t.Fatalf("degenerate quantiles = %g/%g/%g, want 1.5", hs.P50, hs.P90, hs.P99)
	}

	r2 := NewRegistry()
	for i := 1; i <= 1000; i++ {
		r2.Observe("spread", float64(i)/100) // 0.01 .. 10
	}
	s, ok := r2.HistogramSnapshotFor("spread")
	if !ok {
		t.Fatal("histogram missing")
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Fatalf("quantiles not ordered: %g/%g/%g", s.P50, s.P90, s.P99)
	}
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %g outside observed range [%g, %g]", q, s.Min, s.Max)
		}
	}
	// Within log₂ buckets the estimate can be off by at most one bucket
	// width: the true p50 is 5.0, whose bucket spans (4, 8].
	if s.P50 < 4 || s.P50 > 8 {
		t.Fatalf("p50 = %g, want within the (4, 8] bucket of the true median 5", s.P50)
	}
	if s.P99 < 8 || s.P99 > 10 {
		t.Fatalf("p99 = %g, want within [8, 10] for a true p99 of 9.9", s.P99)
	}

	// Quantile() on an empty histogram is NaN, and the JSON snapshot
	// sanitizes it away.
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}
