package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Add("c", 1)
				r.Observe("h", 0.5)
				r.Set("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != workers*each {
		t.Fatalf("counter = %v, want %v", got, workers*each)
	}
	if got := r.Histogram("h").Count(); got != workers*each {
		t.Fatalf("histogram count = %v, want %v", got, workers*each)
	}
	if g, ok := r.GaugeValue("g"); !ok || g != each-1 {
		t.Fatalf("gauge = %v, %v", g, ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// v in (2^(e-1), 2^e] must land in the bucket whose upper bound is 2^e.
	cases := []struct {
		v  float64
		le float64
	}{
		{1.0, 1.0},                           // exactly 2^0 -> le 2^0
		{1.5, 2.0},                           // in (1, 2] -> le 2^1
		{0.75, 1.0},                          // in (0.5, 1] -> le 2^0
		{1e-20, math.Ldexp(1, histMinExp-1)}, // below range -> low bucket
		{0, math.Ldexp(1, histMinExp-1)},     // zero -> low bucket
		{-3, math.Ldexp(1, histMinExp-1)},    // negative -> low bucket
		{1e20, math.Inf(1)},                  // above range -> high bucket
	}
	for _, c := range cases {
		if got := bucketUpper(bucketIndex(c.v)); got != c.le {
			t.Errorf("bucket upper for %v = %v, want %v", c.v, got, c.le)
		}
		h.Observe(c.v)
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("count = %d", h.Count())
	}
	if min := math.Float64frombits(h.min.Load()); min != -3 {
		t.Fatalf("min = %v", min)
	}
	if max := math.Float64frombits(h.max.Load()); max != 1e20 {
		t.Fatalf("max = %v", max)
	}
}

func TestHistogramMeanAndSum(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	if h.Sum() != 6 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Mean() != 2 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestSnapshotJSONRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Add(MetricSolverSteps, 42)
	r.Set(MetricSolverGap, 0.25)
	r.Observe(MetricSolverStepSeconds, 0.001)
	r.Observe(MetricSolverStepSeconds, 0.002)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters[MetricSolverSteps] != 42 {
		t.Fatalf("counters = %v", back.Counters)
	}
	if back.Gauges[MetricSolverGap] != 0.25 {
		t.Fatalf("gauges = %v", back.Gauges)
	}
	h := back.Histograms[MetricSolverStepSeconds]
	if h.Count != 2 || h.Sum != 0.003 {
		t.Fatalf("histogram = %+v", h)
	}
	if len(h.Buckets) == 0 {
		t.Fatal("no buckets exported")
	}
}

func TestSnapshotSanitizesNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Set("g", math.Inf(1))
	r.Gauge("nan").Set(math.NaN())
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("non-finite values broke JSON encoding: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON")
	}
}

func TestLabeled(t *testing.T) {
	got := Labeled(MetricSolverDegraded, "reason", "deadline exceeded")
	want := "solver_degraded_total{reason=deadline exceeded}"
	if got != want {
		t.Fatalf("Labeled = %q, want %q", got, want)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	_ = r.Histogram("empty") // created but never observed
	hs := r.Snapshot().Histograms["empty"]
	if hs.Count != 0 || hs.Min != 0 || hs.Max != 0 || hs.Mean != 0 {
		t.Fatalf("empty histogram snapshot = %+v", hs)
	}
}
