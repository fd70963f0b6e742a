package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lrd/internal/dist"
	"lrd/internal/numerics"
	"lrd/internal/obs"
	"lrd/internal/solver"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// quickTrace builds a small synthetic trace for fast tests.
func quickTrace(t *testing.T, seed int64) traces.Trace {
	t.Helper()
	tr, err := traces.Synthesize(traces.Config{
		Name:     "quick",
		Hurst:    0.85,
		Bins:     1 << 13,
		BinWidth: 0.02,
		Quantile: traces.LognormalQuantile(4, 0.5),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func quickModel(t *testing.T) TraceModel {
	t.Helper()
	tm, err := BuildTraceModel(quickTrace(t, 1), 0.85)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// fastCfg keeps solver work small in tests.
func fastCfg() solver.Config {
	return solver.Config{InitialBins: 64, MaxBins: 2048, MaxIterations: 20000}
}

func TestBuildTraceModel(t *testing.T) {
	tm := quickModel(t)
	if tm.Marginal.Len() == 0 || tm.Marginal.Len() > HistogramBins {
		t.Fatalf("marginal atoms = %d", tm.Marginal.Len())
	}
	if tm.Hurst != 0.85 {
		t.Fatalf("imposed Hurst = %v", tm.Hurst)
	}
	if tm.MeanEpoch <= 0 {
		t.Fatalf("mean epoch = %v", tm.MeanEpoch)
	}
	if _, err := BuildTraceModel(traces.Trace{}, 0.8); err == nil {
		t.Fatal("want error on empty trace")
	}
}

// TestBuildTraceModelRejectsBadHurst: a trace model needs a Hurst parameter
// in (0.5, 1), where α = 3 − 2H is a valid tail index; BuildTraceModel
// estimates none (fit.Trace does), and a directly built model's source
// checks the same range.
func TestBuildTraceModelRejectsBadHurst(t *testing.T) {
	tr := quickTrace(t, 2)
	for _, h := range []float64{0.5, 1.0, 0.2, 1.5, 0, -1} {
		if _, err := BuildTraceModel(tr, h); err == nil {
			t.Errorf("BuildTraceModel accepted H=%v", h)
		}
		tm := TraceModel{Marginal: dist.MustMarginal([]float64{1}, []float64{1}), Hurst: h, MeanEpoch: 0.08}
		if _, err := tm.Source(1); err == nil {
			t.Errorf("Source accepted H=%v", h)
		}
	}
	if _, err := BuildTraceModel(tr, 0); err == nil || !strings.Contains(err.Error(), "fit.Trace") {
		t.Errorf("H=0 error %v does not point to fit.Trace", err)
	}
}

// TestTraceModelSourceCalibration: a trace model's source takes α = 3 − 2H
// and θ such that the untruncated mean epoch θ/(α−1) is the trace's (§III).
func TestTraceModelSourceCalibration(t *testing.T) {
	tm := TraceModel{
		Marginal:  dist.MustMarginal([]float64{5, 15}, []float64{0.5, 0.5}),
		Hurst:     0.9,
		MeanEpoch: 0.08,
	}
	s, err := tm.Source(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(s.Interarrival.Alpha, 1.2, 1e-12) {
		t.Fatalf("alpha = %v", s.Interarrival.Alpha)
	}
	if !numerics.AlmostEqual(s.Interarrival.Theta, 0.016, 1e-12) {
		t.Fatalf("theta = %v", s.Interarrival.Theta)
	}
	if !numerics.AlmostEqual(s.Interarrival.Mean(), 0.08, 1e-12) {
		t.Fatalf("mean epoch = %v", s.Interarrival.Mean())
	}
	if !numerics.AlmostEqual(s.Hurst(), 0.9, 1e-12) {
		t.Fatalf("Hurst = %v", s.Hurst())
	}
}

func TestSourceCalibration(t *testing.T) {
	tm := quickModel(t)
	src, err := tm.Source(5)
	if err != nil {
		t.Fatal(err)
	}
	if src.Interarrival.Cutoff != 5 {
		t.Fatalf("cutoff = %v", src.Interarrival.Cutoff)
	}
	// θ calibrated so the untruncated mean epoch matches.
	alpha := dist.AlphaFromHurst(tm.Hurst)
	if !numerics.AlmostEqual(src.Interarrival.Theta/(alpha-1), tm.MeanEpoch, 1e-9) {
		t.Fatalf("θ calibration off: %v vs %v", src.Interarrival.Theta/(alpha-1), tm.MeanEpoch)
	}
}

func TestSourceWithHurstKeepsTheta(t *testing.T) {
	tm := quickModel(t)
	a, err := tm.SourceWithHurst(0.6, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tm.SourceWithHurst(0.95, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Interarrival.Theta != b.Interarrival.Theta {
		t.Fatalf("θ must be fixed across H: %v vs %v", a.Interarrival.Theta, b.Interarrival.Theta)
	}
	if a.Hurst() != 0.6 || b.Hurst() != 0.95 {
		t.Fatalf("Hurst override failed: %v %v", a.Hurst(), b.Hurst())
	}
	if _, err := tm.SourceWithHurst(1.2, 1); err == nil {
		t.Fatal("want error for Hurst outside (0.5, 1)")
	}
}

// TestSweepCellsTakeReferenceCoordinates: a cell's grid coordinates come
// from the reference source the sweep realized its model from, never from
// the model or a remote reply, so a local mmfq sweep and a remote sweep
// whose replies carry only a bracket fill the fluid sweep's table rows bit
// for bit — and a degraded remote cell is still counted.
func TestSweepCellsTakeReferenceCoordinates(t *testing.T) {
	tm := quickModel(t)
	buffers := []float64{0.05, 0.2}
	cutoffs := []float64{1, math.Inf(1)}
	sweep := func(cfg SweepConfig) []Point {
		t.Helper()
		pts, err := LossVsBufferAndCutoff(context.Background(), tm, 0.8, buffers, cutoffs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(buffers)*len(cutoffs) {
			t.Fatalf("%d points, want %d", len(pts), len(buffers)*len(cutoffs))
		}
		return pts
	}
	fl := sweep(Sweep(fastCfg()))
	mmfq := Sweep(fastCfg())
	mmfq.Model = source.Spec{Name: "mmfq"}
	reg := obs.NewRegistry()
	remote := Sweep(fastCfg())
	remote.Solver.Recorder = reg
	remote.Remote = func(_ context.Context, cell RemoteCell) (Point, error) {
		p := Point{Loss: 1e-3, Lower: 5e-4, Upper: 2e-3, Converged: true}
		if cell.NormalizedBuffer == buffers[0] {
			p.Degraded = solver.DegradedDeadline
		}
		return p, nil
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, pts := range map[string][]Point{"mmfq": sweep(mmfq), "remote": sweep(remote)} {
		for i, p := range pts {
			w := fl[i]
			if !same(p.NormalizedBuffer, w.NormalizedBuffer) || !same(p.Cutoff, w.Cutoff) ||
				!same(p.Hurst, w.Hurst) || !same(p.Scale, w.Scale) || p.Streams != w.Streams {
				t.Errorf("%s cell %d at (b=%v, Tc=%v, H=%v, a=%v, n=%d), fluid at (b=%v, Tc=%v, H=%v, a=%v, n=%d)",
					name, i, p.NormalizedBuffer, p.Cutoff, p.Hurst, p.Scale, p.Streams,
					w.NormalizedBuffer, w.Cutoff, w.Hurst, w.Scale, w.Streams)
			}
		}
	}
	if fl[0].Hurst != tm.Hurst || fl[0].Cutoff != cutoffs[0] || fl[0].Scale != 1 || fl[0].Streams != 1 {
		t.Errorf("fluid cell 0 at (Tc=%v, H=%v, a=%v, n=%d), want the reference's (%v, %v, 1, 1)",
			fl[0].Cutoff, fl[0].Hurst, fl[0].Scale, fl[0].Streams, cutoffs[0], tm.Hurst)
	}
	if got := reg.CounterValue(obs.MetricCoreCellsDegraded); got != float64(len(cutoffs)) {
		t.Errorf("%s = %v, want %d degraded remote cells", obs.MetricCoreCellsDegraded, got, len(cutoffs))
	}
}

func TestLossVsBufferAndCutoffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2×3 sweep with near-zero-loss cells is slow")
	}
	tm := quickModel(t)
	buffers := []float64{0.05, 0.5}
	cutoffs := []float64{0.1, 2, math.Inf(1)}
	pts, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, buffers, cutoffs, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	// Loss non-decreasing in cutoff at fixed buffer; non-increasing in
	// buffer at fixed cutoff — the qualitative shape of Figs. 4/5.
	get := func(b, tc float64) float64 {
		for _, p := range pts {
			if p.NormalizedBuffer == b && (p.Cutoff == tc || (math.IsInf(tc, 1) && math.IsInf(p.Cutoff, 1))) {
				return p.Loss
			}
		}
		t.Fatalf("missing point (%v, %v)", b, tc)
		return 0
	}
	for _, b := range buffers {
		if get(b, 0.1) > get(b, 2)*1.05+1e-15 || get(b, 2) > get(b, math.Inf(1))*1.05+1e-15 {
			t.Fatalf("loss not increasing in cutoff at b=%v", b)
		}
	}
	for _, tc := range cutoffs {
		if get(0.5, tc) > get(0.05, tc)*1.05+1e-15 {
			t.Fatalf("loss not decreasing in buffer at Tc=%v", tc)
		}
	}
	if _, err := LossVsBufferAndCutoff(context.Background(), tm, 0.85, nil, cutoffs, Sweep(fastCfg())); err == nil {
		t.Fatal("want error on empty grid")
	}
}

// TestOutOfResolutionSolveStops pins the solver's one stall rule on the
// b = 0.5 s, Tc = 0.1 s cell of TestLossVsBufferAndCutoffShape: its bounds
// go stationary short of the RelGap target at MaxBins, so the solve must
// stop there as stalled instead of stepping out its iteration budget on
// roundoff.
func TestOutOfResolutionSolveStops(t *testing.T) {
	ref, err := quickModel(t).Source(0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := solver.NewModelNormalized(source.NewFluid(ref), 0.85, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.SolveModel(m, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != solver.DegradedStalled || res.Bins != 2048 || res.Iterations >= 2000 {
		t.Fatalf("degraded %q at M = %d after %d iterations; want %q at M = 2048 in fewer than 2000",
			res.Degraded, res.Bins, res.Iterations, solver.DegradedStalled)
	}
}

func TestLossVsCutoffFixedThetaSeparatesMarginals(t *testing.T) {
	// Fig. 9's point: two marginals with the same θ, H, buffer, and
	// utilization produce very different loss. A wide two-point marginal
	// against a narrow one.
	wide := dist.MustMarginal([]float64{0, 2}, []float64{0.5, 0.5})
	narrow := dist.MustMarginal([]float64{0.8, 1.2}, []float64{0.5, 0.5})
	cutoffs := []float64{0.5, 5}
	wpts, err := LossVsCutoffFixedTheta(context.Background(), wide, 2.0/3.0, 0.5, 0.02, 0.9, cutoffs, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}
	npts, err := LossVsCutoffFixedTheta(context.Background(), narrow, 2.0/3.0, 0.5, 0.02, 0.9, cutoffs, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cutoffs {
		if wpts[i].Loss <= npts[i].Loss*10 {
			t.Fatalf("marginal effect too weak: wide %v vs narrow %v at Tc=%v",
				wpts[i].Loss, npts[i].Loss, cutoffs[i])
		}
	}
}

func TestLossVsHurstAndScaleShape(t *testing.T) {
	// An MTV-like narrow marginal (CoV 0.3): the regime in which the paper
	// demonstrates the dominance of the marginal over the Hurst parameter.
	tr, err := traces.Synthesize(traces.Config{
		Name:     "mtv-like",
		Hurst:    0.83,
		Bins:     1 << 13,
		BinWidth: 1.0 / 30,
		Quantile: traces.LognormalQuantile(9.5, 0.3),
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := BuildTraceModel(tr, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ranges: H ∈ (0.55, 0.95), a ∈ (0.5, 1.5), Tc = ∞, B/c = 1 s.
	pts, err := LossVsHurstAndScale(context.Background(), tm, 0.8, 1.0, []float64{0.55, 0.75, 0.95}, []float64{0.5, 1.0, 1.5}, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("points = %d", len(pts))
	}
	// The paper's Fig. 10 finding: scale dominates. At fixed H, loss must
	// increase strongly with the scaling factor.
	get := func(h, a float64) float64 {
		for _, p := range pts {
			if p.Hurst == h && p.Scale == a {
				return p.Loss
			}
		}
		t.Fatalf("missing point (%v, %v)", h, a)
		return 0
	}
	floor := func(x float64) float64 { return math.Max(x, 1e-10) }
	for _, h := range []float64{0.55, 0.95} {
		lo, mid, hi := get(h, 0.5), get(h, 1.0), get(h, 1.5)
		if !(lo <= mid && mid < hi) {
			t.Fatalf("H=%v: loss not increasing in scale: %v %v %v", h, lo, mid, hi)
		}
	}
	// The paper's comparison ("changing α from 1.0 to 0.5 decreases the
	// loss rate by more than an order of magnitude. In contrast, changing
	// the value of H has much less of an impact"): a half-scale move must
	// beat a comparable single step of the Hurst parameter.
	scaleHalving := floor(get(0.95, 1.0)) / floor(get(0.95, 0.5))
	hurstStep := floor(get(0.95, 1.0)) / floor(get(0.75, 1.0))
	if scaleHalving < 5 {
		t.Fatalf("halving the marginal width should cut loss by ≈10×, got %v", scaleHalving)
	}
	if scaleHalving < hurstStep*0.6 {
		t.Fatalf("scale halving (%v×) should rival or beat an H step (%v×)", scaleHalving, hurstStep)
	}
}

func TestLossVsHurstAndStreamsShape(t *testing.T) {
	tm := quickModel(t)
	pts, err := LossVsHurstAndStreams(context.Background(), tm, 0.85, 0.3, []float64{0.85}, []int{1, 4}, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var single, multi float64
	for _, p := range pts {
		switch p.Streams {
		case 1:
			single = p.Loss
		case 4:
			multi = p.Loss
		}
	}
	// Fig. 11: superposing streams sharply decreases loss.
	if multi >= single/2 {
		t.Fatalf("superposition effect too weak: 1 stream %v, 4 streams %v", single, multi)
	}
}

func TestLossVsBufferAndScaleShape(t *testing.T) {
	tm := quickModel(t)
	pts, err := LossVsBufferAndScale(context.Background(), tm, 0.85, []float64{0.1, 1.0}, []float64{0.5, 1.0}, Sweep(fastCfg()))
	if err != nil {
		t.Fatal(err)
	}
	get := func(b, a float64) float64 {
		for _, p := range pts {
			if p.NormalizedBuffer == b && p.Scale == a {
				return p.Loss
			}
		}
		t.Fatalf("missing point (%v, %v)", b, a)
		return 0
	}
	// Fig. 12's claim: halving the marginal width cuts loss more than a
	// 10-fold buffer increase.
	bufferGain := get(0.1, 1.0) / math.Max(get(1.0, 1.0), 1e-300)
	scaleGain := get(0.1, 1.0) / math.Max(get(0.1, 0.5), 1e-300)
	if scaleGain < bufferGain {
		t.Fatalf("scaling gain %v should beat buffer gain %v for LRD input", scaleGain, bufferGain)
	}
}

func TestBoundConvergenceSnapshots(t *testing.T) {
	tm := quickModel(t)
	snaps, err := BoundConvergence(tm, 0.85, 0.5, 100, []int{5, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	for _, s := range snaps {
		if len(s.Grid) != 101 || len(s.LowerCDF) != 101 || len(s.UpperCDF) != 101 {
			t.Fatalf("n=%d: wrong vector lengths", s.Iteration)
		}
		// CDFs end at 1 and the lower process is stochastically smaller,
		// i.e. its CDF dominates pointwise.
		if !numerics.AlmostEqual(s.LowerCDF[100], 1, 1e-9) || !numerics.AlmostEqual(s.UpperCDF[100], 1, 1e-9) {
			t.Fatalf("n=%d: CDFs do not reach 1", s.Iteration)
		}
		for i := range s.Grid {
			if s.LowerCDF[i] < s.UpperCDF[i]-1e-9 {
				t.Fatalf("n=%d: bound ordering violated at %d", s.Iteration, i)
			}
		}
	}
	// The gap between the bound CDFs shrinks with n (Fig. 2's message).
	gap := func(s BoundSnapshot) float64 {
		var g float64
		for i := range s.Grid {
			g += s.LowerCDF[i] - s.UpperCDF[i]
		}
		return g
	}
	if !(gap(snaps[2]) < gap(snaps[0])) {
		t.Fatalf("bound gap did not shrink: %v -> %v", gap(snaps[0]), gap(snaps[2]))
	}
	if _, err := BoundConvergence(tm, 0.85, 0.5, 100, []int{10, 5}); err == nil {
		t.Fatal("want error on decreasing iteration targets")
	}
}

func TestShuffleLossSurface(t *testing.T) {
	tr := quickTrace(t, 3)
	rng := rand.New(rand.NewSource(4))
	buffers := []float64{0.05, 0.5}
	blocks := []float64{0.1, 5, math.Inf(1)}
	pts, err := ShuffleLossSurface(context.Background(), tr, 0.85, buffers, blocks, rng, SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	get := func(b, blk float64) float64 {
		for _, p := range pts {
			if p.NormalizedBuffer == b && (p.BlockLen == blk || (math.IsInf(blk, 1) && math.IsInf(p.BlockLen, 1))) {
				return p.Loss
			}
		}
		t.Fatalf("missing point")
		return 0
	}
	// Larger blocks (more retained correlation) cannot reduce loss much;
	// allow simulation noise via a generous factor.
	for _, b := range buffers {
		if get(b, 0.1) > get(b, math.Inf(1))*1.5+1e-12 {
			t.Fatalf("b=%v: shuffled loss %v above unshuffled %v", b, get(b, 0.1), get(b, math.Inf(1)))
		}
	}
	// Validation errors.
	if _, err := ShuffleLossSurface(context.Background(), traces.Trace{}, 0.8, buffers, blocks, rng, SweepConfig{}); err == nil {
		t.Fatal("want error on empty trace")
	}
	if _, err := ShuffleLossSurface(context.Background(), tr, 1.5, buffers, blocks, rng, SweepConfig{}); err == nil {
		t.Fatal("want error on bad utilization")
	}
	if _, err := ShuffleLossSurface(context.Background(), tr, 0.8, nil, blocks, rng, SweepConfig{}); err == nil {
		t.Fatal("want error on empty grid")
	}
}

func TestHorizonFromSurface(t *testing.T) {
	// Synthetic surface with known horizons: loss saturates at cutoff = 2·b.
	var pts []ShufflePoint
	buffers := []float64{0.1, 0.2, 0.4, 0.8}
	cutoffs := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2}
	for _, b := range buffers {
		for _, tc := range cutoffs {
			loss := 1e-3
			if tc < 2*b {
				loss = 1e-3 * tc / (2 * b)
			}
			pts = append(pts, ShufflePoint{NormalizedBuffer: b, BlockLen: tc, Loss: loss})
		}
	}
	res, err := HorizonFromSurface(pts, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buffers) != len(buffers) {
		t.Fatalf("buffers with horizons = %d", len(res.Buffers))
	}
	if math.Abs(res.Fit.Exponent-1) > 0.35 {
		t.Fatalf("scaling exponent = %v, want ≈ 1", res.Fit.Exponent)
	}
	if _, err := HorizonFromSurface(nil, 0.1); err == nil {
		t.Fatal("want error on empty surface")
	}
}

func TestMTVAndBellcoreModels(t *testing.T) {
	if testing.Short() {
		t.Skip("trace synthesis is slow")
	}
	tm, err := MTVModel(7)
	if err != nil {
		t.Fatal(err)
	}
	if !numerics.AlmostEqual(tm.Marginal.Mean(), 9.5222, 0.1) {
		t.Fatalf("MTV marginal mean = %v", tm.Marginal.Mean())
	}
	if tm.Hurst != 0.83 {
		t.Fatalf("MTV H = %v", tm.Hurst)
	}
	bc, err := BellcoreModel(8)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Hurst != 0.9 {
		t.Fatalf("BC H = %v", bc.Hurst)
	}
	// The paper quotes mean epochs of ≈80 ms (MTV) and ≈15 ms (BC); our
	// stand-ins should land in the same range (a factor of ~3).
	if tm.MeanEpoch < 0.02 || tm.MeanEpoch > 0.5 {
		t.Fatalf("MTV mean epoch = %v s", tm.MeanEpoch)
	}
	if bc.MeanEpoch < 0.005 || bc.MeanEpoch > 0.1 {
		t.Fatalf("BC mean epoch = %v s", bc.MeanEpoch)
	}
}

func TestParallelMapPropagatesError(t *testing.T) {
	ctx := context.Background()
	err := parallelMap(ctx, nil, 0, 64, func(i int) error {
		if i == 17 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v, want errTest", err)
	}
	if err := parallelMap(ctx, nil, 0, 0, func(int) error { return nil }); err != nil {
		t.Fatalf("empty map errored: %v", err)
	}
	// Order-independence: results land in their own slots, and every index
	// runs.
	out := make([]int, 100)
	ran := make([]bool, 100)
	err = parallelMap(ctx, nil, 0, 100, func(i int) error {
		out[i] = i * i
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
		if !ran[i] {
			t.Fatalf("slot %d never ran", i)
		}
	}
}

func TestParallelMapCancellation(t *testing.T) {
	// A pre-canceled context: no work dispatched, ctx error reported,
	// nothing marked done.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := make([]bool, 32)
	err := parallelMap(ctx, nil, 0, len(ran), func(i int) error {
		ran[i] = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range ran {
		if r {
			t.Fatalf("index %d ran despite canceled context", i)
		}
	}
	// Cancellation mid-run: the call returns (no deadlock) and reports the
	// context error, keeping whatever completed. n is far above any
	// plausible worker count so completion stays partial.
	const n = 1 << 14
	ctx2, cancel2 := context.WithCancel(context.Background())
	ran2 := make([]bool, n)
	err2 := parallelMap(ctx2, nil, 0, n, func(i int) error {
		if i == 3 {
			cancel2()
		}
		ran2[i] = true
		return nil
	})
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err2)
	}
	completed := 0
	for _, r := range ran2 {
		if r {
			completed++
		}
	}
	if completed == 0 || completed >= n {
		t.Fatalf("completed = %d, want partial completion", completed)
	}
}

var errTest = errors.New("boom")
