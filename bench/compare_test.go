package main

import "testing"

func series(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

var tenNoise = []float64{-0.2, 0.1, 0, 0.3, -0.1, 0.2, -0.3, 0.1, 0, -0.1}

func TestJudgeVerdicts(t *testing.T) {
	throughput := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	latency := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		verdict        string
		gain           bool
	}{
		{"same code", throughput, series(100, tenNoise...), series(100, tenNoise...), "unchanged", false},
		{"throughput down 10%", throughput, series(100, tenNoise...), series(90, tenNoise...), "regressed", false},
		{"throughput down 3% stays within 5%", throughput, series(100, tenNoise...), series(97, tenNoise...), "unchanged", false},
		{"latency up 20%", latency, series(10, tenNoise...), series(12, tenNoise...), "regressed", false},
		{"latency down 20% is a gain", latency, series(10, tenNoise...), series(8, tenNoise...), "unchanged", true},
		{"spread wider than the bound", throughput,
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100},
			[]float64{82, 118, 92, 108, 100, 86, 114, 96, 104, 100}, "unresolved", false},
		{"wide spread but every change run better", throughput,
			[]float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100},
			[]float64{200, 240, 210, 230, 220, 205, 235, 215, 225, 220}, "unchanged", true},
		{"set-up time obeys the spread rule too", setup,
			[]float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2},
			[]float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, "unresolved", false},
	} {
		v := judge(c.m, c.parent, c.change)
		if v.Verdict != c.verdict || v.Gain != c.gain {
			t.Errorf("%s: verdict %s gain %v (worse %.3f spread %.3f wins %d/%d), want %s gain %v",
				c.name, v.Verdict, v.Gain, v.Worse, v.Spread, v.Wins, v.Pairs, c.verdict, c.gain)
		}
	}
}

func TestJudgeGainNeedsNineInTenPairsAndMoreThanTheIQR(t *testing.T) {
	m := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	parent := series(100, tenNoise...)
	// Better by 2 on eight pairs and worse on two: 8/10 wins is not enough.
	change := series(102, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	change[0], change[1] = 99, 99
	if v := judge(m, parent, change); v.Gain || v.Wins != 8 {
		t.Errorf("8/10 wins: gain %v with %d wins, want no gain", v.Gain, v.Wins)
	}
	// Ten of ten wins, but the medians differ by less than the parent's IQR.
	wide := []float64{90, 110, 95, 105, 100, 92, 108, 97, 103, 100}
	shifted := make([]float64, len(wide))
	for i, p := range wide {
		shifted[i] = p + 0.5
	}
	if v := judge(m, wide, shifted); v.Gain || v.Wins != 10 {
		t.Errorf("tiny shift: gain %v with %d wins, want no gain", v.Gain, v.Wins)
	}
	// Fewer than ten pairs never show a gain.
	if v := judge(m, parent[:9], series(150, tenNoise[:9]...)); v.Gain {
		t.Error("9 pairs: want no gain")
	}
}

func TestSetValuesPairBySeed(t *testing.T) {
	s := setFile{Runs: []setRun{
		{Workload: "w", Seed: 3, Metrics: map[string]float64{"m": 30}},
		{Workload: "x", Seed: 1, Metrics: map[string]float64{"m": 99}},
		{Workload: "w", Seed: 1, Metrics: map[string]float64{"m": 10}},
		{Workload: "w", Seed: 2, Metrics: map[string]float64{"m": 20}},
	}}
	got := s.values("w", "m")
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("values = %v, want [10 20 30]", got)
	}
}

func TestSameMachine(t *testing.T) {
	a := provenance{GOOS: "linux", GOARCH: "amd64", CPU: "x", NProc: 2, Commit: "a"}
	b := a
	b.Commit, b.Dirty = "b", true
	if !a.sameMachine(b) {
		t.Error("a different commit on the same machine must compare")
	}
	b.NProc = 4
	if a.sameMachine(b) {
		t.Error("a different CPU count is a different machine")
	}
}

// A change whose runs fail more operations than the parent's shows no gain
// and reads failing on every row of that workload, however fast it is.
func TestCompareSetsFailsMoreFailures(t *testing.T) {
	m := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.05}
	side := func(base float64, failed int) setFile {
		var s setFile
		for i, v := range series(base, tenNoise...) {
			r := setRun{Workload: "w", Seed: int64(i + 1), Attempted: 100, Metrics: map[string]float64{"ops_per_s": v}}
			if i == 0 {
				r.Failed = failed
			}
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	for _, c := range []struct {
		name                   string
		parentFail, changeFail int
		verdict                string
		gain                   bool
	}{
		{"no failures", 0, 0, "unchanged", true},
		{"as many failures as the parent", 2, 2, "unchanged", true},
		{"more failures than the parent", 0, 1, "failing", false},
	} {
		vs := compareSets([]metricSpec{m}, []string{"w"}, side(100, c.parentFail), side(150, c.changeFail))
		if len(vs) != 1 || vs[0].Verdict != c.verdict || vs[0].Gain != c.gain {
			t.Errorf("%s: got %+v, want verdict %s gain %v", c.name, vs, c.verdict, c.gain)
		}
	}
}
