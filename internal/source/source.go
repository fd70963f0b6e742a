// Package source is the model-agnostic traffic-source layer: one contract
// for "a stationary fluid traffic model the queue solver can consume", and
// a named registry of concrete models behind it.
//
// The paper's central claim — the marginal distribution and the correlation
// structure *up to the correlation horizon* dominate queueing loss, not the
// full LRD structure (§IV: "we may choose any model among the panoply of
// available models … as long as the chosen model captures the correlation
// structure up to CH") — is a claim about competing models of the same
// traffic. This package makes that claim executable: every registered model
// is a transformation of the same fitted reference (the paper's
// cutoff-correlated fluid source of §III), so the identical sweep machinery
// in internal/core runs unchanged over the paper's model, an on/off
// specialization, a Markovian (hyperexponential) fit of the correlation,
// and a Markov-modulated fluid baseline with an exact analytic oracle.
//
// A Source exposes exactly what solver.Model construction consumes — the
// marginal rate distribution and the epoch-length (interarrival) law. A
// realized model is solver input only: the reference it was built from
// keeps the grid coordinates (Hurst, cutoff) a sweep reports.
package source

import (
	"errors"
	"math"
	"math/rand"

	"lrd/internal/dist"
	"lrd/internal/fluid"
)

// Source is the solver-facing contract of a traffic model: the
// ingredients solver.Model construction consumes (factored out of
// fluid.Source), plus a summary for listings. Its rate autocorrelation is
// the epoch law's residual-life ccdf (Eq. 3), Interarrival().ResidualCCDF.
type Source interface {
	// Marginal is the stationary fluid-rate distribution (Λ, Π).
	Marginal() dist.Marginal
	// Interarrival is the epoch-length law modulating the rate process.
	Interarrival() dist.Interarrival
	// MeanRate returns λ̄, the stationary mean fluid rate.
	MeanRate() float64
	// String summarizes the model and its parameters.
	String() string
}

// FitQuality is implemented by sources built by approximating a reference
// correlation (the markov model): FitMaxError is the sup-norm deviation of
// the fitted correlation from the reference over the fit horizon. Sweeps
// surface it as the obs gauge MetricSourceFitMaxError so fit quality is
// visible per sweep.
type FitQuality interface {
	FitMaxError() float64
}

// OverflowOracle is implemented by sources with an exact analytic
// solution for the infinite-buffer overflow probability (the mmfq model):
// ExactOverflow returns Pr{Q > buffer} for a queue served at serviceRate.
// By footnote 2 of the paper it upper-bounds the finite-buffer loss rate,
// giving a cross-check oracle for the bounded solver.
type OverflowOracle interface {
	ExactOverflow(serviceRate, buffer float64) (float64, error)
}

// Fluid wraps the paper's cutoff-correlated fluid source (the reference
// model itself) as a Source. It is the registry's "fluid" entry and the
// identity transformation: solving through it is bit-identical to solving
// the wrapped fluid.Source directly.
type Fluid struct {
	Src fluid.Source
}

// NewFluid wraps a fluid source.
func NewFluid(src fluid.Source) Fluid { return Fluid{Src: src} }

func (f Fluid) Marginal() dist.Marginal         { return f.Src.Marginal }
func (f Fluid) Interarrival() dist.Interarrival { return f.Src.Interarrival }
func (f Fluid) MeanRate() float64               { return f.Src.MeanRate() }
func (f Fluid) String() string                  { return "fluid " + f.Src.String() }

// generic is the Source implementation shared by the registered non-fluid
// models: a named (marginal, interarrival) pair.
type generic struct {
	name string
	marg dist.Marginal
	iv   dist.Interarrival
}

func (g generic) Marginal() dist.Marginal         { return g.marg }
func (g generic) Interarrival() dist.Interarrival { return g.iv }
func (g generic) MeanRate() float64               { return g.marg.Mean() }
func (g generic) String() string                  { return g.name }

// GenerateBinned samples a stationary path of the source over horizon
// seconds and integrates it into bins of width binWidth, returning the
// average rate per bin — the trace format of the paper's §III ("each trace
// element is a rate averaged over a 10 ms interval"), for any registered
// model. The first epoch's remaining length is drawn from the residual-life
// law (Eq. 7), so the path starts in the stationary regime rather than at a
// renewal instant.
func GenerateBinned(s Source, horizon, binWidth float64, rng *rand.Rand) ([]float64, error) {
	if !(horizon > 0) || !(binWidth > 0) {
		return nil, errors.New("source: GenerateBinned requires positive horizon and bin width")
	}
	iv := s.Interarrival()
	marg := s.Marginal()
	nbins := int(math.Ceil(horizon / binWidth))
	work := make([]float64, nbins)
	t := 0.0
	first := true
	for t < horizon {
		var d float64
		if first {
			d = iv.SampleResidual(rng)
			first = false
		} else {
			d = iv.Sample(rng)
		}
		if d <= 0 {
			// Zero-length epochs carry no work; resample defensively.
			continue
		}
		r := marg.Sample(rng)
		end := math.Min(t+d, horizon)
		// Spread r·(segment length) over the covered bins.
		for seg := t; seg < end; {
			bin := int(seg / binWidth)
			if bin >= nbins {
				break
			}
			binEnd := math.Min(float64(bin+1)*binWidth, end)
			if binEnd <= seg {
				// Floating-point stall: the computed boundary did not
				// advance (seg sits exactly on a bin edge whose index
				// rounded down). Force strict progress; the skipped work
				// is below one ulp.
				binEnd = math.Nextafter(seg, math.Inf(1))
			}
			work[bin] += r * (binEnd - seg)
			seg = binEnd
		}
		t += d
	}
	for i := range work {
		work[i] /= binWidth
	}
	return work, nil
}
