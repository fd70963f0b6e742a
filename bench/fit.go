package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lrd"
)

// fitHursts are the true Hurst parameters of the fit probe's synthetic
// traces.
var fitHursts = []float64{0.65, 0.75, 0.85, 0.9}

const (
	fitBins      = 65536
	fitBinWidth  = 0.01 // seconds
	fitTolerance = 0.1  // largest accepted |Ĥ − H|
	histBins     = 50   // the paper's marginal resolution, as FitTrace uses
)

// fitTraces synthesizes the fit probe's traces: exact FGN at each Hurst
// parameter through a lognormal marginal (mean 10, CoV 0.5).
func fitTraces(seed int64, n int) ([]lrd.Trace, error) {
	out := make([]lrd.Trace, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*int64(len(fitHursts)) + int64(i)))
		tr, err := lrd.SynthesizeTrace(lrd.TraceConfig{
			Name: fmt.Sprintf("fgn-h%g", fitHursts[i]), Hurst: fitHursts[i],
			Bins: fitBins, BinWidth: fitBinWidth, Quantile: lrd.LognormalQuantile(10, 0.5),
		}, rng)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// checkFit checks a fitted Hurst parameter against the synthesized one.
func checkFit(got, want float64) error {
	if !(math.Abs(got-want) <= fitTolerance) {
		return fmt.Errorf("fitted H %.4f, synthesized %.2f (tolerance %.2f)", got, want, fitTolerance)
	}
	return nil
}

// fitProbe times trace fitting, which uses the FFT layer at periodogram
// scale and no solver at all: lrd.FitTrace on each 64k-bin trace, reps
// times, and then on the same traces its parts — Hurst estimation, and
// marginal plus mean-epoch extraction — whose medians leave the median
// fit's residual. Every fit must recover its trace's Hurst parameter.
func fitProbe(j *job, traces []lrd.Trace, reps int) error {
	var fitMs, estMs, margMs []float64
	for rep := 0; rep < reps; rep++ {
		for k, tr := range traces {
			f0 := time.Now()
			res, err := lrd.FitTrace(tr, lrd.FitOptions{Cutoff: 1})
			fitMs = append(fitMs, time.Since(f0).Seconds()*1e3)
			j.res.Attempted++
			if err == nil {
				err = checkFit(res.Hurst, fitHursts[k])
			}
			if err != nil {
				j.fail("fit %s: %v", tr.Name, err)
			}
		}
	}
	for rep := 0; rep < reps; rep++ {
		for _, tr := range traces {
			e0 := time.Now()
			lrd.EstimateHurst(tr.Rates)
			e1 := time.Now()
			if _, err := tr.Marginal(histBins); err != nil {
				return err
			}
			if _, err := tr.MeanEpoch(histBins); err != nil {
				return err
			}
			estMs = append(estMs, e1.Sub(e0).Seconds()*1e3)
			margMs = append(margMs, time.Since(e1).Seconds()*1e3)
		}
	}
	fit, est, marg := median(fitMs), median(estMs), median(margMs)
	j.layer("lrdest.estimate_all_ms.n65536", est)
	j.layer("fit.marginal_ms.n65536", marg)
	j.layer("fit.residual_ms", fit-est-marg)
	j.res.Residuals = append(j.res.Residuals, residualRow{
		Parent: "fit (median)", Children: "estimate + marginal (medians)", N: len(fitMs),
		ParentS: fit / 1e3, ChildS: (est + marg) / 1e3, SelfS: (fit - est - marg) / 1e3,
		Share: (fit - est - marg) / fit,
	})
	return nil
}
