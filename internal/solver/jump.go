package solver

import (
	"math"
	"time"

	"lrd/internal/faultinject"
	"lrd/internal/numerics"
	"lrd/internal/obs"
)

// Certified jumps. A bound process that mixes slowly spends most of a solve
// creeping toward its fixed point, its occupancy ccdf moving by a nearly
// constant factor r < 1 per step. Every jumpHistory plain steps, a solve
// extrapolates each process's ccdf along its last increment toward that
// limit and keeps the jump only when one Lindley step certifies it:
//
//   - Candidate. With r = ‖q_n − q_{n−1}‖₁ / ‖q_{n−1} − q_{n−2}‖₁ (no
//     candidate unless 0 < r < 1), G the ccdf Pr{Q >= j·d} and
//     s = min(s_p, jumpShade·r/(1−r)), the candidate's ccdf is
//     G* = clamp(G_n + s·(G_n − G_{n−1}), 0, 1) with G*(0) = 1, repaired
//     into a ccdf by a running minimum from 0 (lower process) or a running
//     maximum from B (upper), then differenced into a pmf q*. The geometric
//     remainder of the increments is r/(1−r); jumpShade keeps the jump
//     short of it. The length s_p is per process and per solve: it starts
//     at jumpScale0, doubles after an acceptance and is quartered after a
//     rejection, never below 1.
//   - Check. Both candidates take one step together, the cost of a plain
//     step (a process without a candidate steps its iterate). The lower
//     candidate is kept only if Pr{T_L(q*) >= x} >= Pr{q* >= x}, the upper
//     only if Pr{T_H(q*) >= x} <= Pr{q* >= x}, at every grid point x > 0;
//     both ccdfs are compensated tail sums, compared with no tolerance. The
//     step carries only a plain step's transform roundoff, which the bound
//     slack already covers. A kept lower candidate must also not lower the
//     lower bound and, from the paper's full start, a kept upper one not
//     raise the upper bound, so the watchdog's monotonicity contract holds.
//   - Commit. A process whose candidate is kept takes T(q*) as its iterate;
//     one whose candidate is dropped keeps its iterate. The attempt counts
//     as one iteration, and the history restarts.
//
// Why a kept candidate is safe. Write ≤st for the stochastic order, T for
// the exact bounded Lindley map and π for the stationary occupancy, and
// recall that T_L and T_H are stochastically monotone with
// T_L(q) ≤st T(q) ≤st T_H(q) (Eqs. 21–22 round each increment down or up).
// Lower: q ≤st T_L(q) makes T_L^n(q) increase to a fixed point ρ of T_L.
// Then T(ρ) ≥st T_L(ρ) = ρ, so T^n(ρ) increases, and by the ergodicity
// Prop. II.1 already assumes its limit is π. Hence q ≤st ρ ≤st π, and
// T_L(q) ≤st T_L(π) ≤st T(π) = π: the committed iterate and every later
// one bound the loss from below. Upper: dually, q ≥st T_H(q) gives
// q ≥st π and T_H(q) ≥st π. Neither argument needs the discretized chains
// to have unique laws.

// The jump schedule: code constants, not options.
const (
	// jumpHistory is the number of plain steps since the last reset (an
	// attempt or a Refine) after which a solve attempts a jump.
	jumpHistory = 3
	// jumpScale0 is a process's initial extrapolation length s_p.
	jumpScale0 = 4
	// jumpShade is the share of the geometric remainder r/(1−r) a jump
	// may cover.
	jumpShade = 0.9
)

// jumpOutcome is one bound process's part in a jump attempt.
type jumpOutcome uint8

const (
	jumpNone     jumpOutcome = iota // no candidate: the process stepped its iterate
	jumpRejected                    // its candidate was not certified: it kept its iterate
	jumpAccepted                    // its candidate was certified: it took the stepped candidate
)

// jumpState is one bound process's jump history and schedule.
type jumpState struct {
	prev, last float64   // ‖q_{n−1} − q_{n−2}‖₁ and ‖q_n − q_{n−1}‖₁
	scale      float64   // the extrapolation length s_p
	cand       []float64 // the candidate pmf q*, from the scratch free list
}

// advance is one iteration of a solve: a plain Step, or, once jumpHistory
// plain steps have run since the last reset, a jump attempt. When neither
// process has a candidate the iteration is a plain Step, and the history
// runs on.
func (it *Iterator) advance() error {
	if it.plain >= jumpHistory {
		if lower, upper, err := it.jump(); lower != jumpNone || upper != jumpNone || err != nil {
			return err
		}
	}
	if err := it.Step(); err != nil {
		return err
	}
	it.plain++
	if it.plain >= jumpHistory-1 {
		// The displaced double-buffers hold the previous iterates.
		dl, dh := increments(it.ql, it.qlNext, it.qh, it.qhNext)
		it.jumpL.prev, it.jumpL.last = it.jumpL.last, dl
		it.jumpH.prev, it.jumpH.last = it.jumpH.last, dh
	}
	return nil
}

// increments returns ‖ql − pl‖₁ and ‖qh − ph‖₁ in one loop.
func increments(ql, pl, qh, ph []float64) (dl, dh float64) {
	pl, qh, ph = pl[:len(ql)], qh[:len(ql)], ph[:len(ql)]
	for j, v := range ql {
		dl += math.Abs(v - pl[j])
		dh += math.Abs(qh[j] - ph[j])
	}
	return dl, dh
}

// jump makes one jump attempt right after a plain step, while the
// double-buffers still hold the previous iterates: it builds each process's
// candidate, steps both in one transform pair, and commits what the step
// certifies (see the comment at the top of this file). The step passes the
// same fault points and watchdog as Step: a NumericError commits nothing.
// When neither process has a candidate it does nothing and reports
// jumpNone for both.
func (it *Iterator) jump() (lower, upper jumpOutcome, err error) {
	var stepStart time.Time
	if it.cfg.Recorder != nil {
		stepStart = time.Now()
	}
	n := it.bins + 1
	inL, inH := it.ql, it.qh
	if it.jumpL.extrapolate(it.scratch, it.ql, it.qlNext[:n], false) {
		inL, lower = it.jumpL.cand, jumpRejected
	}
	if it.jumpH.extrapolate(it.scratch, it.qh, it.qhNext[:n], true) {
		inH, upper = it.jumpH.cand, jumpRejected
	}
	if lower == jumpNone && upper == jumpNone {
		return jumpNone, jumpNone, nil
	}
	// The previous iterates are spent: the double-buffers take the step.
	ql, qh := it.qlNext[:n], it.qhNext[:n]
	it.stepRaw(inL, inH, ql, qh)
	faultinject.Apply(faultinject.SolverConvolution, ql)
	faultinject.Apply(faultinject.SolverConvolution, qh)
	driftL, driftH, newLo, newHi := it.settle(ql, qh)
	if faultinject.Active() {
		pair := []float64{newLo, newHi}
		faultinject.Apply(faultinject.SolverLossBounds, pair)
		newLo, newHi = pair[0], pair[1]
	}
	if err := it.checkMass(driftL, driftH, newLo, newHi); err != nil {
		return it.jumpFailed(err)
	}
	if lower == jumpRejected && jumpCertified(inL, ql, false) && newLo >= it.lowerLoss {
		lower = jumpAccepted
	}
	if upper == jumpRejected && jumpCertified(inH, qh, true) && (it.warm || it.certified || newHi <= it.upperLoss) {
		upper = jumpAccepted
	}
	lo, hi := it.lowerLoss, it.upperLoss
	if lower != jumpRejected {
		lo = newLo
	}
	if upper != jumpRejected {
		hi = newHi
	}
	if err := it.checkBounds(lo, hi); err != nil {
		return it.jumpFailed(err)
	}
	if lower != jumpRejected {
		it.ql, it.qlNext = ql, it.ql
		it.lowerLoss = lo
	}
	if upper != jumpRejected {
		it.qh, it.qhNext = qh, it.qh
		it.setUpper(hi)
	}
	it.jumpL.rescale(lower)
	it.jumpH.rescale(upper)
	it.plain = 0
	if rec := it.cfg.Recorder; rec != nil {
		rec.Add(obs.MetricSolverJumpAttempts, 1)
		for _, o := range [...]jumpOutcome{lower, upper} {
			if o == jumpAccepted {
				rec.Add(obs.MetricSolverJumpsAccepted, 1)
			}
		}
	}
	it.counted(stepStart, driftL, driftH, lo, hi)
	return lower, upper, nil
}

// jumpFailed reports a watchdog violation in a jump attempt.
func (it *Iterator) jumpFailed(err error) (jumpOutcome, jumpOutcome, error) {
	if rec := it.cfg.Recorder; rec != nil {
		rec.Add(obs.MetricSolverNumericErrors, 1)
	}
	return jumpNone, jumpNone, err
}

// extrapolate writes into c.cand the candidate pmf of a process whose
// iterate is q and previous iterate prev, and reports whether it has one
// (see the comment at the top of this file). The candidate vector comes
// from the scratch free list and is kept across attempts.
func (c *jumpState) extrapolate(s *arenaScratch, q, prev []float64, upper bool) bool {
	r := c.last / c.prev
	if !(r > 0 && r < 1) {
		return false
	}
	step := math.Min(c.scale, jumpShade*r/(1-r))
	n := len(q)
	if cap(c.cand) < n {
		s.putFloat(c.cand)
		c.cand = s.getFloat(n)
	}
	g := c.cand[:n]
	c.cand = g
	// The extrapolated ccdf, Pr{Q >= j·d}, from compensated tail sums.
	var accQ, accP numerics.Accumulator
	for j := n - 1; j > 0; j-- {
		accQ.Add(q[j])
		accP.Add(prev[j])
		gq := accQ.Sum()
		g[j] = numerics.Clamp(gq+step*(gq-accP.Sum()), 0, 1)
	}
	g[0] = 1
	// Repair it into a ccdf: pull the lower candidate down, push the upper
	// one up.
	if upper {
		for j := n - 2; j > 0; j-- {
			if g[j] < g[j+1] {
				g[j] = g[j+1]
			}
		}
	} else {
		for j := 1; j < n; j++ {
			if g[j] > g[j-1] {
				g[j] = g[j-1]
			}
		}
	}
	for j := 0; j < n-1; j++ {
		g[j] -= g[j+1]
	}
	return true
}

// rescale adapts the extrapolation length to an attempt's outcome.
func (c *jumpState) rescale(o jumpOutcome) {
	switch o {
	case jumpAccepted:
		c.scale *= 2
	case jumpRejected:
		c.scale = math.Max(c.scale/4, 1)
	}
}

// jumpCertified reports whether t, the step of a candidate q, certifies it:
// Pr{t >= x} >= Pr{q >= x} at every grid point x > 0 for the lower process
// (q is a sub-fixed point of T_L), <= for the upper one (a super-fixed
// point of T_H). Both ccdfs are compensated tail sums, compared with no
// tolerance.
func jumpCertified(q, t []float64, upper bool) bool {
	t = t[:len(q)]
	var accQ, accT numerics.Accumulator
	for j := len(q) - 1; j > 0; j-- {
		accQ.Add(q[j])
		accT.Add(t[j])
		if gq, gt := accQ.Sum(), accT.Sum(); upper && gt > gq || !upper && gt < gq {
			return false
		}
	}
	return true
}
