package fit

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lrd/internal/api"
	"lrd/internal/dist"
	"lrd/internal/traces"
)

// testTraces are the paper's two stand-ins and copula-FGN traces across
// the Hurst range, as lrdfit -gen builds them.
func testTraces(t *testing.T) []traces.Trace {
	t.Helper()
	var out []traces.Trace
	mtv, err := traces.MTV(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	bellcore, err := traces.Bellcore(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mtv, bellcore)
	for i, h := range []float64{0.6, 0.75, 0.9} {
		tr, err := traces.Synthesize(traces.Config{
			Name:     "fgn",
			Hurst:    h,
			Bins:     1 << 13,
			BinWidth: 0.01,
			Quantile: traces.LognormalQuantile(1, 0.5),
		}, rand.New(rand.NewSource(int64(3+i))))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestReplyRebuildsFittedSource: the /v1/fit reply alone rebuilds the
// fitted reference bit for bit — the marginal is the trace's histogram,
// α = 3 − 2H and θ is calibrated from the trace's mean epoch — so a client
// that solves the reply solves exactly the queue the fit describes.
func TestReplyRebuildsFittedSource(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tr := range testTraces(t) {
		for _, bins := range []int{10, 50, 200} {
			marg, err := tr.Marginal(bins)
			if err != nil {
				t.Fatal(err)
			}
			epoch, err := tr.MeanEpoch(bins)
			if err != nil {
				t.Fatal(err)
			}
			for _, cutoff := range []float64{0, 10} {
				res, err := Trace(tr, Options{Bins: bins, Cutoff: cutoff})
				if err != nil {
					t.Fatalf("%s bins=%d cutoff=%g: %v", tr.Name, bins, cutoff, err)
				}
				q := res.SolveRequest(0.8, 0.5)
				ref, _, err := q.Source()
				if err != nil {
					t.Fatalf("%s bins=%d cutoff=%g: %v", tr.Name, bins, cutoff, err)
				}
				alpha := dist.AlphaFromHurst(res.Hurst)
				theta, err := dist.CalibrateTheta(alpha, epoch)
				if err != nil {
					t.Fatal(err)
				}
				wantCutoff := cutoff
				if cutoff == 0 {
					wantCutoff = math.Inf(1)
				}
				iv := ref.Interarrival
				if !same(iv.Alpha, alpha) || !same(iv.Theta, theta) || !same(iv.Cutoff, wantCutoff) {
					t.Errorf("%s bins=%d cutoff=%g: rebuilt (α, θ, Tc) = (%v, %v, %v), want (%v, %v, %v)",
						tr.Name, bins, cutoff, iv.Alpha, iv.Theta, iv.Cutoff, alpha, theta, wantCutoff)
				}
				if ref.Marginal.Len() != marg.Len() {
					t.Fatalf("%s bins=%d: rebuilt marginal has %d atoms, want %d", tr.Name, bins, ref.Marginal.Len(), marg.Len())
				}
				for i := 0; i < marg.Len(); i++ {
					if !same(ref.Marginal.Rate(i), marg.Rate(i)) || !same(ref.Marginal.Prob(i), marg.Prob(i)) {
						t.Errorf("%s bins=%d: atom %d rebuilt as %v:%v, want %v:%v", tr.Name, bins, i,
							ref.Marginal.Rate(i), ref.Marginal.Prob(i), marg.Rate(i), marg.Prob(i))
					}
				}
			}
		}
	}
}

// constantRates is a trace of n bins at one rate.
func constantRates(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 3
	}
	return r
}

// TestTraceRejectsBadInput: every malformed input is the client's error.
func TestTraceRejectsBadInput(t *testing.T) {
	tr := testTraces(t)[2]
	cases := map[string]struct {
		tr   traces.Trace
		opts Options
	}{
		"empty trace":          {traces.Trace{BinWidth: 0.01}, Options{}},
		"zero bin width":       {traces.Trace{Rates: tr.Rates}, Options{}},
		"negative bin width":   {traces.Trace{Rates: tr.Rates, BinWidth: -1}, Options{}},
		"negative cutoff":      {tr, Options{Cutoff: -1}},
		"hurst override above": {tr, Options{Hurst: 1}},
		"hurst override below": {tr, Options{Hurst: -0.2}},
		"unknown estimator":    {tr, Options{Estimator: "periodogram"}},
		// Every estimator fails on a constant rate, so this answers
		// bad_request only if the cutoff is checked before estimating.
		"negative cutoff, constant rate": {traces.Trace{Rates: constantRates(4096), BinWidth: 0.01}, Options{Cutoff: -1}},
	}
	for name, c := range cases {
		_, err := Trace(c.tr, c.opts)
		var aerr *api.Error
		if !errors.As(err, &aerr) || aerr.Code != api.CodeBadRequest {
			t.Errorf("%s: error %v, want code %s", name, err, api.CodeBadRequest)
		}
	}
}
