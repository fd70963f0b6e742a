package source

import (
	"fmt"
	"math"

	"lrd/internal/ams"
	"lrd/internal/dist"
	"lrd/internal/fluid"
	"lrd/internal/markov"
	"lrd/internal/mmfq"
	"lrd/internal/onoff"
)

// The built-in registry: five ways of modeling the same fitted traffic.
//
//	fluid  — the paper's cutoff-Pareto renewal fluid, unchanged (identity).
//	onoff  — the paper's on/off specialization: two-level marginal, same
//	         epoch law ("this model can be specialized into the familiar
//	         on/off source model").
//	markov — the §IV program: a hyperexponential (phase-type, hence
//	         Markovian) epoch law NNLS-fitted to the reference correlation
//	         up to a horizon.
//	mmfq   — exponential epochs: the renewal fluid that IS a CTMC-modulated
//	         fluid, with the Anick–Mitra–Sondhi spectral solution as an
//	         exact infinite-buffer oracle (footnote 2 upper-bounds loss).
//	ams    — the classical Anick–Mitra–Sondhi baseline itself: exponential
//	         on/off with a {0, peak} marginal preserving the mean rate, and
//	         the 1982 closed form as its overflow oracle. The short-range-
//	         dependent straw man the paper contrasts LRD traffic against.
func init() {
	MustRegister(Model{
		Name: "fluid",
		Doc:  "cutoff-Pareto renewal fluid (the paper's model; default, bit-identical)",
		Build: func(ref fluid.Source, p Params) (Source, error) {
			return NewFluid(ref), nil
		},
	})
	MustRegister(Model{
		Name: "onoff",
		Doc:  "on/off specialization: {0, peak} marginal at equal probability, same epoch law",
		ParamDoc: map[string]string{
			"peak": "on-state rate (default 2·mean rate, preserving the mean)",
		},
		Build: buildOnOff,
	})
	MustRegister(Model{
		Name: "markov",
		Doc:  "hyperexponential epoch law fitted to the reference correlation up to a horizon (§IV)",
		ParamDoc: map[string]string{
			"horizon":    "correlation fit horizon in seconds (default: the reference cutoff, or 10 if infinite)",
			"components": "number of exponential modes (default: auto, ~4/decade)",
			"samples":    "number of log-spaced fit points (default 200)",
			"iterations": "NNLS sweep budget (default 20000)",
		},
		Build: buildMarkov,
	})
	MustRegister(Model{
		Name: "mmfq",
		Doc:  "exponential epochs: an exact Markov-modulated fluid with an analytic overflow oracle",
		ParamDoc: map[string]string{
			"epoch": "mean epoch length in seconds (default: the reference mean epoch)",
		},
		Build: buildMMFQ,
	})
	MustRegister(Model{
		Name: "ams",
		Doc:  "exponential on/off (Anick–Mitra–Sondhi 1982): {0, peak} marginal preserving the mean rate, closed-form overflow oracle",
		ParamDoc: map[string]string{
			"peak":  "on-state rate (default 2·mean rate; P(on)=mean/peak keeps the mean)",
			"epoch": "mean epoch length in seconds (default: the reference mean epoch)",
		},
		Build: buildAMS,
	})
}

// take pops a parameter with a default; callers validate the result.
func take(p Params, key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

func buildOnOff(ref fluid.Source, p Params) (Source, error) {
	peak := take(p, "peak", 2*ref.MeanRate())
	m, iv, err := onoff.FitSource(peak, ref.Interarrival.Theta, ref.Interarrival.Alpha, ref.Interarrival.Cutoff)
	if err != nil {
		return nil, err
	}
	return generic{
		name: fmt.Sprintf("onoff{peak=%g, θ=%gs, α=%g, Tc=%gs}", peak, iv.Theta, iv.Alpha, iv.Cutoff),
		marg: m,
		iv:   iv,
	}, nil
}

// markovSource is the fitted Markovian model plus its fit diagnostics.
type markovSource struct {
	generic
	comps   []markov.Component
	fitErr  float64
	horizon float64
}

// FitMaxError implements FitQuality: the sup-norm deviation of the fitted
// correlation from the reference over the fit horizon.
func (m markovSource) FitMaxError() float64 { return m.fitErr }

// FitHorizon returns the horizon (seconds) the correlation was fitted to.
func (m markovSource) FitHorizon() float64 { return m.horizon }

// Components returns the fitted exponential correlation modes.
func (m markovSource) Components() []markov.Component { return m.comps }

func buildMarkov(ref fluid.Source, p Params) (Source, error) {
	// The default horizon is the reference's full correlated range: beyond
	// the cutoff the reference correlation is zero, so there is nothing
	// left to fit. An infinite cutoff needs a finite choice; 10 s matches
	// the markov experiment's historical setting.
	defHorizon := ref.Interarrival.Cutoff
	if math.IsInf(defHorizon, 1) {
		defHorizon = 10
	}
	horizon := take(p, "horizon", defHorizon)
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("source: markov horizon %v must be finite and positive", horizon)
	}
	opts := markov.FitOptions{
		Components: int(take(p, "components", 0)),
		Samples:    int(take(p, "samples", 0)),
		Iterations: int(take(p, "iterations", 0)),
	}
	comps, err := markov.FitCorrelation(ref.Interarrival.ResidualCCDF, horizon, opts)
	if err != nil {
		return nil, err
	}
	iv, err := markov.Interarrival(comps)
	if err != nil {
		return nil, err
	}
	return markovSource{
		generic: generic{
			name: fmt.Sprintf("markov{horizon=%g, %d components, %v}", horizon, len(comps), iv),
			marg: ref.Marginal,
			iv:   iv,
		},
		comps:   comps,
		fitErr:  markov.MaxError(ref.Interarrival.ResidualCCDF, comps, horizon, 400),
		horizon: horizon,
	}, nil
}

// mmfqSource is the exponential-epoch renewal fluid. Exponential epochs
// make the renewal construction memoryless, so the source is *exactly* a
// CTMC-modulated fluid: from any rate level the chain leaves at rate
// 1/epoch and jumps to level j with the marginal probability π_j.
type mmfqSource struct {
	generic
	epoch float64
}

// Modulator returns the equivalent CTMC-modulated fluid.
func (s mmfqSource) Modulator() mmfq.Modulator {
	n := s.marg.Len()
	q := make([][]float64, n)
	rates := make([]float64, n)
	for i := 0; i < n; i++ {
		q[i] = make([]float64, n)
		rates[i] = s.marg.Rate(i)
		for j := 0; j < n; j++ {
			if j != i {
				q[i][j] = s.marg.Prob(j) / s.epoch
			}
		}
		q[i][i] = -(1 - s.marg.Prob(i)) / s.epoch
	}
	return mmfq.Modulator{Generator: q, Rates: rates}
}

// ExactOverflow implements OverflowOracle: the spectral (Anick–Mitra–
// Sondhi) infinite-buffer overflow probability Pr{Q > buffer} at the given
// service rate. By footnote 2 of the paper it upper-bounds the
// finite-buffer loss rate, so it cross-checks the bounded solver.
func (s mmfqSource) ExactOverflow(serviceRate, buffer float64) (float64, error) {
	sol, err := mmfq.Solve(s.Modulator(), serviceRate)
	if err != nil {
		return 0, err
	}
	return sol.OverflowProbability(buffer), nil
}

func buildMMFQ(ref fluid.Source, p Params) (Source, error) {
	epoch := take(p, "epoch", ref.Interarrival.Mean())
	if !(epoch > 0) || math.IsInf(epoch, 1) {
		return nil, fmt.Errorf("source: mmfq epoch %v must be finite and positive", epoch)
	}
	iv, err := dist.NewHyperexponential([]float64{1}, []float64{epoch})
	if err != nil {
		return nil, err
	}
	return mmfqSource{
		generic: generic{
			name: fmt.Sprintf("mmfq{epoch=%gs, %d levels}", epoch, ref.Marginal.Len()),
			marg: ref.Marginal,
			iv:   iv,
		},
		epoch: epoch,
	}, nil
}

// amsSource is the exponential on/off source: a {0, peak} marginal with
// P(on) = mean/peak (so the reference mean rate is preserved) redrawn at
// exponential epochs. With two levels and memoryless epochs the renewal
// construction is exactly the two-state CTMC of Anick–Mitra–Sondhi: the
// on-state sojourn is exponential with rate (1−p)/τ and the off-state
// sojourn exponential with rate p/τ, so the 1982 closed form
// Pr{Q > x} = ρ·exp(−ηx) is this source's exact overflow law.
type amsSource struct {
	generic
	peak, pOn, epoch float64
}

// Queue returns the closed-form AMS fluid queue this source feeds at the
// given service rate.
func (s amsSource) Queue(serviceRate float64) ams.OnOffQueue {
	return ams.OnOffQueue{
		OnRate:      s.peak,
		OffToOn:     s.pOn / s.epoch,
		OnToOff:     (1 - s.pOn) / s.epoch,
		ServiceRate: serviceRate,
	}
}

// ExactOverflow implements OverflowOracle via the AMS closed form — an
// independent check on the mmfq spectral solution (same CTMC, different
// derivation) and, per footnote 2 of the paper, an upper bound on the
// finite-buffer loss rate the bounded solver brackets.
func (s amsSource) ExactOverflow(serviceRate, buffer float64) (float64, error) {
	q := s.Queue(serviceRate)
	if err := q.Validate(); err != nil {
		return 0, err
	}
	return q.OverflowProbability(buffer), nil
}

func buildAMS(ref fluid.Source, p Params) (Source, error) {
	mean := ref.MeanRate()
	peak := take(p, "peak", 2*mean)
	if !(peak > mean) || math.IsInf(peak, 1) {
		return nil, fmt.Errorf("source: ams peak %v must be finite and exceed the mean rate %v", peak, mean)
	}
	epoch := take(p, "epoch", ref.Interarrival.Mean())
	if !(epoch > 0) || math.IsInf(epoch, 1) {
		return nil, fmt.Errorf("source: ams epoch %v must be finite and positive", epoch)
	}
	pOn := mean / peak
	m, err := dist.NewMarginal([]float64{0, peak}, []float64{1 - pOn, pOn})
	if err != nil {
		return nil, err
	}
	iv, err := dist.NewHyperexponential([]float64{1}, []float64{epoch})
	if err != nil {
		return nil, err
	}
	return amsSource{
		generic: generic{
			name: fmt.Sprintf("ams{peak=%g, p(on)=%g, epoch=%gs}", peak, pOn, epoch),
			marg: m,
			iv:   iv,
		},
		peak:  peak,
		pOn:   pOn,
		epoch: epoch,
	}, nil
}
