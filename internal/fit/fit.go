// Package fit is the trace→model pipeline: it turns a binned rate trace
// into the paper's fitted queue description — §III's recipe end to end
// (histogram marginal, mean-epoch θ calibration, Hurst estimation with
// every estimator reporting independently) — as the /v1/fit reply, so the
// lrdfit CLI and the lrdserve endpoint share one implementation. The reply
// plugs directly into a solve or provision request: its SolveRequest
// method builds the fitted queue exactly as an lrdserve client does.
package fit

import (
	"math"

	"lrd/internal/api"
	"lrd/internal/dist"
	"lrd/internal/lrdest"
	"lrd/internal/source"
	"lrd/internal/traces"
)

// DefaultBins is the paper's histogram resolution ("We set the number of
// bins to 50 in all experiments").
const DefaultBins = 50

// Hurst estimates are clamped into this range before deriving α = 3−2H:
// the fluid model's tail index must stay inside (1, 2). The raw estimate is
// reported unclamped so the clamp is always visible.
const (
	MinHurst = 0.51
	MaxHurst = 0.99
)

// Options tunes the fit.
type Options struct {
	// Bins is the histogram resolution for the marginal and the mean-epoch
	// extraction. 0 means DefaultBins.
	Bins int
	// Estimator picks the Hurst estimate: aggvar, rs, whittle, wavelet,
	// gph, or "" / "median" for the median of the estimators that
	// succeeded.
	Estimator string
	// Hurst, when > 0, overrides estimation (estimates are still computed
	// and reported as diagnostics).
	Hurst float64
	// Cutoff is the correlation cutoff lag Tc in seconds carried by the
	// fitted source; 0 means infinite.
	Cutoff float64
	// Model is the registry model the fitted spec targets (zero value =
	// fluid).
	Model source.Spec
}

// Trace fits the model ingredients to a trace and returns the /v1/fit
// reply. Estimation failures carry api.CodeEstimation; everything else is
// a bad-request-shaped input error.
func Trace(tr traces.Trace, opts Options) (api.FitResponse, error) {
	if len(tr.Rates) == 0 {
		return api.FitResponse{}, api.Errorf(api.CodeBadRequest, "empty trace")
	}
	if tr.BinWidth <= 0 {
		return api.FitResponse{}, api.Errorf(api.CodeBadRequest, "trace bin width must be positive, got %g", tr.BinWidth)
	}
	if err := checkOptions(opts); err != nil {
		return api.FitResponse{}, err
	}
	bins := opts.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	marg, err := tr.Marginal(bins)
	if err != nil {
		return api.FitResponse{}, api.Errorf(api.CodeEstimation, "fitting marginal: %v", err)
	}
	epoch, err := tr.MeanEpoch(bins)
	if err != nil {
		return api.FitResponse{}, api.Errorf(api.CodeEstimation, "extracting mean epoch: %v", err)
	}

	est := lrdest.EstimateAll(tr.Rates)
	raw, chosen, err := chooseHurst(est, opts)
	if err != nil {
		return api.FitResponse{}, err
	}
	h := math.Min(math.Max(raw, MinHurst), MaxHurst)
	alpha := dist.AlphaFromHurst(h)
	theta, err := dist.CalibrateTheta(alpha, epoch)
	if err != nil {
		return api.FitResponse{}, api.Errorf(api.CodeEstimation, "calibrating theta from mean epoch %g s: %v", epoch, err)
	}

	estimates := make(map[string]api.EstimatorResult, 5)
	for _, ne := range est.ByName() {
		if ne.Err != nil {
			estimates[ne.Name] = api.EstimatorResult{Error: ne.Err.Error()}
			continue
		}
		estimates[ne.Name] = api.EstimatorResult{Hurst: ne.H}
	}

	return api.FitResponse{
		Samples:   len(tr.Rates),
		BinWidth:  tr.BinWidth,
		MeanRate:  tr.MeanRate(),
		MeanEpoch: epoch,
		Hurst:     h,
		RawHurst:  raw,
		Estimator: chosen,
		Alpha:     alpha,
		Theta:     theta,
		Cutoff:    opts.Cutoff,
		Marginal:  source.FormatMarginal(marg),
		Model:     opts.Model,
		Estimates: estimates,
	}, nil
}

// checkOptions rejects the options no trace can make valid — a negative
// cutoff, a Hurst override outside (0, 1), an unknown estimator name — so
// a bad request costs no estimation. The estimator name matters only
// without an override.
func checkOptions(opts Options) error {
	if opts.Cutoff < 0 {
		return api.Errorf(api.CodeBadRequest, "cutoff must be >= 0, got %g", opts.Cutoff)
	}
	if opts.Hurst != 0 {
		if !(opts.Hurst > 0 && opts.Hurst < 1) {
			return api.Errorf(api.CodeBadRequest, "hurst override %g outside (0, 1)", opts.Hurst)
		}
		return nil
	}
	switch opts.Estimator {
	case "", "median":
		return nil
	}
	for _, ne := range (lrdest.Estimates{}).ByName() {
		if ne.Name == opts.Estimator {
			return nil
		}
	}
	return api.Errorf(api.CodeBadRequest, "unknown estimator %q (aggvar, rs, whittle, wavelet, gph, median)", opts.Estimator)
}

// chooseHurst resolves the estimate the fit uses, for options that passed
// checkOptions: an explicit override, a named estimator's slot, or the
// median of the estimators that succeeded.
func chooseHurst(est lrdest.Estimates, opts Options) (raw float64, chosen string, err error) {
	if opts.Hurst != 0 {
		return opts.Hurst, "override", nil
	}
	for _, ne := range est.ByName() {
		if ne.Name != opts.Estimator {
			continue
		}
		if ne.Err != nil {
			return 0, "", api.Errorf(api.CodeEstimation, "estimator %s: %v", ne.Name, ne.Err)
		}
		return ne.H, ne.Name, nil
	}
	// "" or "median": checkOptions admits no other name.
	med, merr := est.Median()
	if merr != nil {
		return 0, "", api.Errorf(api.CodeEstimation, "%v", merr)
	}
	return med, "median", nil
}

// FromRequest adapts a /v1/fit wire request into a trace and options. The
// returned error is already typed for the wire.
func FromRequest(req api.FitRequest) (traces.Trace, Options, error) {
	if len(req.Rates) == 0 {
		return traces.Trace{}, Options{}, api.Errorf(api.CodeBadRequest, "rates is required")
	}
	if req.BinWidth <= 0 {
		return traces.Trace{}, Options{}, api.Errorf(api.CodeBadRequest, "bin_width must be positive, got %g", req.BinWidth)
	}
	for i, v := range req.Rates {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return traces.Trace{}, Options{}, api.Errorf(api.CodeBadRequest, "non-finite rate at index %d", i)
		}
		if v < 0 {
			return traces.Trace{}, Options{}, api.Errorf(api.CodeBadRequest, "negative rate %g at index %d", v, i)
		}
	}
	tr := traces.Trace{Name: "wire", BinWidth: req.BinWidth, Rates: req.Rates}
	opts := Options{
		Bins:      req.Bins,
		Estimator: req.Estimator,
		Hurst:     req.Hurst,
		Cutoff:    req.Cutoff,
		Model:     req.Model,
	}
	return tr, opts, nil
}
