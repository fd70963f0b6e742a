package solver

import (
	"math"

	"lrd/internal/numerics"
)

// Cold start. Prop. II.1 keeps the bracket valid at every resolution M and
// from any upper start that lies stochastically above the stationary
// occupancy, so a cold solve need not climb the ladder from InitialBins nor
// drain its upper process from full:
//
//   - First rung. Eq. 22 rounds each increment up by less than d = B/M, so
//     the upper chain's mean increment lies in [E[W], E[W] + d). While
//     d > |E[W]| that chain has no negative drift. Its steps are wasted
//     only if that drift piles it against B: in the diffusion
//     approximation its stationary law tilts like e^{2μx/E[W²]} on [0, B]
//     for a drift μ < d, so a rung with d <= E[W²]/(2B) keeps the tilt
//     below e across the buffer, and the chain spreads over it in about
//     B²/E[W²] steps. The ladder therefore starts at the first rung whose
//     d <= max(|E[W]|, E[W²]/(2B)). The second term matters near
//     utilization 1, where |E[W]| vanishes but the coarse rungs still
//     bracket the loss.
//   - Upper start. For any θ > 0 with E[e^{θW}] <= 1, Kingman's martingale
//     bound (Proc. Camb. Phil. Soc. 60, 1964) gives Pr{Q > x} <= e^{−θx} for
//     the infinite-buffer queue, which lies pathwise above the finite one.
//     So min(Exp(θ), B), projected up onto the grid, is >=st the stationary
//     occupancy, and the up-rounded kernel keeps every iterate so (the Seed
//     argument in warm.go). certifyTheta finds such a θ for laws with a
//     finite Upper() where θ·B reaches certFloor; elsewhere the start is the
//     paper's full one.

// coldBins is the first rung of a cold solve's ladder: the first
// InitialBins·2^k not above MaxBins whose grid step B/M is at most
// max(|E[W]|, E[W²]/(2B)), with |E[W]| = E[T]·(c − λ̄). An unstable queue
// (λ̄ >= c) has no negative drift at any rung and starts at InitialBins.
func coldBins(m Model, cfg Config) int {
	drain := m.Interarrival.Mean() * (m.ServiceRate - m.Marginal.Mean())
	step := math.Max(drain, incrementSecondMoment(m)/(2*m.Buffer))
	bins := cfg.InitialBins
	for drain > 0 && bins*2 <= cfg.MaxBins && m.Buffer/float64(bins) > step {
		bins *= 2
	}
	return bins
}

// incrementSecondMoment is E[W²] = E[T²]·E[(λ−c)²], or 0 where E[T²] is
// infinite (an infinite cutoff with α <= 2).
func incrementSecondMoment(m Model) float64 {
	t2 := m.Interarrival.SecondMoment()
	if !(t2 < math.Inf(1)) {
		return 0
	}
	var v float64
	for i := 0; i < m.Marginal.Len(); i++ {
		dr := m.Marginal.Rate(i) - m.ServiceRate
		v += m.Marginal.Prob(i) * dr * dr
	}
	return t2 * v
}

// startTheta is the θ of a cold upper start, or 0 for the full start. Every
// θ below a certified one certifies too (E[e^{θW}] is convex in θ and 1 at
// 0), so θ·B is capped at ln(1/slack): a start whose mass at B is below the
// roundoff slack stops at step 0 like one at the slack, but would report an
// upper bound below the FFT roundoff (1e-17 to 1e-16) that lower bounds
// carry in zero-loss cells.
func startTheta(m Model) float64 {
	theta := certifyTheta(m)
	return math.Min(theta, -math.Log(slack)/m.Buffer)
}

// thetaCells is the number of cells K of certifyTheta's bound.
const thetaCells = 32

// certFloor is the least θ·B worth certifying. Below it the start keeps
// more than e^{−1/2} ≈ 61% of its mass at B, drains about as slowly as the
// full start, and saves fewer steps than the certification costs.
const certFloor = 0.5

// certMargin is certifyTheta's roundoff margin: θ is accepted only when its
// bound on E[e^{θW}] − 1 is below −certMargin times the bound's absolute
// mass, orders of magnitude above the bound's floating-point error.
const certMargin = 1e-9

// certTol is the relative precision to which certifyTheta locates the
// largest certified θ.
const certTol = 1e-3

// certifyTheta returns a θ > 0 certified to satisfy E[e^{θW}] <= 1 for the
// model's work increment W = T·(λ−c), or 0 when the epoch law is unbounded
// (Upper() = ∞), the marginal lacks a positive or a negative drift, or
// θ = certFloor/B does not certify.
//
// With J the law's partial mean and cells 0 = t_0 < … < t_K = Upper(),
// let T̃ be T with its ccdf replaced on each cell by the cell average
// w_k = (J(t_k) − J(t_{k+1}))/(t_{k+1} − t_k): a law on the cell edges with
// mass 1 − w_0 at 0, w_{k−1} − w_k at t_k and w_{K−1} at t_K. Integration
// by parts gives E[e^{aT}] = 1 + a·∫ e^{at}·Pr{T > t} dt, and on each cell
// Chebyshev's integral inequality bounds ∫ e^{at}·Pr{T > t} by the cell
// means of its two monotone factors: from above when a > 0 (they move in
// opposite directions), from below when a < 0, where the factor a flips it
// back. So E[e^{aT}] <= E[e^{aT̃}] for either sign of a, and
// U(θ) = Σ_i π_i·E[e^{θ(λ_i−c)T̃}] bounds E[e^{θW}] from above. U is a
// moment generating function, so U − 1 is negative between 0 and one upper
// root: if θ = certFloor/B fails, so does every larger θ, and the check
// costs one evaluation of U. Otherwise Newton's method finds the root, and
// the last point is placed just below it, where it certifies.
func certifyTheta(m Model) float64 {
	upper := m.Interarrival.Upper()
	if !(upper > 0) || math.IsInf(upper, 1) {
		return 0
	}
	b := newThetaBound(m, upper)
	if b == nil {
		return 0
	}
	lo, hi := certFloor/m.Buffer, math.Inf(1)
	if pos, neg, _, _ := b.excess(lo); !certifies(pos, neg) {
		return 0
	}
	// Start from the Gaussian root 2|E[W]|/E[W̃²], kept inside the bracket
	// (lo, hi) of the largest certified and smallest uncertified θ seen.
	var mean, second float64
	for i, dr := range b.drift {
		for k, p := range b.mass {
			mean += b.prob[i] * p * dr * b.t[k]
			second += b.prob[i] * p * dr * dr * b.t[k] * b.t[k]
		}
	}
	theta := math.Max(-2*mean/second, 2*lo)
	for i := 0; i < 60 && theta > 0 && !math.IsInf(theta, 1); i++ {
		pos, neg, dpos, dneg := b.excess(theta)
		if certifies(pos, neg) {
			lo = theta
		} else {
			hi = theta
		}
		if hi-lo <= certTol*hi {
			break
		}
		// Newton on log(pos/−neg), nearly linear in θ: the positive part
		// grows exponentially, the negative one about linearly.
		next := theta - math.Log(pos/-neg)/(dpos/pos-dneg/neg)
		switch {
		case pos > -neg && next > lo && theta-next < certTol*theta/2:
			next *= 1 - certTol/4
		case next > lo && next < hi:
		case !math.IsInf(hi, 1):
			next = (lo + hi) / 2
		default:
			next = 2 * theta
		}
		theta = next
	}
	return lo
}

// certifies reports whether a bound U − 1 = pos + neg lies below
// −certMargin times its absolute mass.
func certifies(pos, neg float64) bool {
	return pos*(1+certMargin)+neg*(1-certMargin) <= 0
}

// thetaBound is the law of T̃ (edges t, masses mass) and the marginal's
// nonzero drifts λ_i − c with their probabilities.
type thetaBound struct {
	t, mass     []float64
	drift, prob []float64
}

// newThetaBound tabulates T̃ on cells geometric in t + τ with τ = E[T]/8,
// nearly uniform below the law's mean and widening proportionally above
// it. It returns nil unless the marginal has both a positive and a
// negative drift.
func newThetaBound(m Model, upper float64) *thetaBound {
	law := m.Interarrival
	b := &thetaBound{}
	var pos, neg bool
	for i := 0; i < m.Marginal.Len(); i++ {
		dr := m.Marginal.Rate(i) - m.ServiceRate
		if dr == 0 {
			continue
		}
		pos, neg = pos || dr > 0, neg || dr < 0
		b.drift = append(b.drift, dr)
		b.prob = append(b.prob, m.Marginal.Prob(i))
	}
	mean := law.Mean()
	if !pos || !neg || !(mean > 0) {
		return nil
	}
	tau := mean / 8
	span := math.Log1p(upper / tau)
	b.t = make([]float64, thetaCells+1)
	for k := 1; k < thetaCells; k++ {
		b.t[k] = tau * math.Expm1(span*float64(k)/thetaCells)
	}
	b.t[thetaCells] = upper
	b.mass = make([]float64, thetaCells+1)
	tail := law.TailFunc()
	_, _, prevJ := tail(0)
	prevW := 1.0
	for k := 0; k < thetaCells; k++ {
		_, _, j := tail(b.t[k+1])
		w := numerics.Clamp((prevJ-j)/(b.t[k+1]-b.t[k]), 0, prevW)
		b.mass[k] = prevW - w
		prevJ, prevW = j, w
	}
	b.mass[thetaCells] = prevW
	return b
}

// excess splits U(θ) − 1 into the contributions of the positive and the
// negative drifts, pos >= 0 >= neg, and returns both with their
// derivatives.
func (b *thetaBound) excess(theta float64) (pos, neg, dpos, dneg float64) {
	var p, n, dp, dn numerics.Accumulator
	for i, dr := range b.drift {
		a := theta * dr
		var s, ds float64
		for k := 1; k < len(b.t); k++ {
			e := math.Expm1(a * b.t[k])
			s += b.mass[k] * e
			ds += b.mass[k] * dr * b.t[k] * (1 + e)
		}
		if dr > 0 {
			p.Add(b.prob[i] * s)
			dp.Add(b.prob[i] * ds)
		} else {
			n.Add(b.prob[i] * s)
			dn.Add(b.prob[i] * ds)
		}
	}
	return p.Sum(), n.Sum(), dp.Sum(), dn.Sum()
}

// certifiedStart writes into q (length M+1, zeroed) the up-rounded grid
// projection of min(Exp(θ), B) on the grid {0, d, …, M·d = B}:
// Pr{S >= j·d} = e^{−θ(j−1)d} for j = 1..M, so its ccdf lies on or above
// e^{−θx} everywhere on [0, B).
func certifiedStart(q []float64, theta, d float64) {
	m := len(q) - 1
	prev := 1.0 // Pr{S >= 1·d}
	for j := 1; j < m; j++ {
		next := math.Exp(-theta * float64(j) * d) // Pr{S >= (j+1)·d}
		q[j] = prev - next
		prev = next
	}
	q[m] = prev
}
