package solver

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"lrd/internal/faultinject"
	"lrd/internal/obs"
)

// denseStep is the bounded Lindley step of the pmf q under the increment
// pmf w (length 2M+1, index l ↦ w(l−M)) by the direct O(M²) double sum:
// the mass at bin i moves to bin i+l−M, clamped to [0, M].
func denseStep(q, w []float64) []float64 {
	m := len(q) - 1
	out := make([]float64, m+1)
	for i, p := range q {
		if p == 0 {
			continue
		}
		for l, x := range w {
			out[min(max(i+l-m, 0), m)] += p * x
		}
	}
	return out
}

// denseCertified checks, independently of the solver's transforms and
// sums, that a jump candidate q is safe for the process whose rounded
// increment pmf is w: q is a pmf, and it is a sub-fixed point (lower,
// Pr{T(q) >= x} >= Pr{q >= x}) or a super-fixed point (upper, <=) of the
// dense step T, at every grid point, within 4·M ulps.
func denseCertified(q, w []float64, upper bool) error {
	tol := 4 * float64(len(q)) * 0x1p-52
	var mass float64
	for j, v := range q {
		if !(v >= 0) {
			return fmt.Errorf("candidate is not a pmf: bin %d holds %g", j, v)
		}
		mass += v
	}
	if math.Abs(mass-1) > tol {
		return fmt.Errorf("candidate is not a pmf: mass %v", mass)
	}
	t := denseStep(q, w)
	var gq, gt float64
	for j := len(q) - 1; j > 0; j-- {
		gq += q[j]
		gt += t[j]
		if upper && gt > gq+tol || !upper && gt < gq-tol {
			return fmt.Errorf("not a %s: Pr{T(q) >= x} = %g, Pr{q >= x} = %g at bin %d of %d",
				map[bool]string{false: "sub-fixed point", true: "super-fixed point"}[upper], gt, gq, j, len(q)-1)
		}
	}
	return nil
}

// fuzzBytes decodes test inputs from fuzz data, cycling through it and
// reading zeros from empty data.
type fuzzBytes struct {
	b []byte
	i int
}

func (d *fuzzBytes) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	v := d.b[d.i%len(d.b)]
	d.i++
	return v
}

// pmf decodes a pmf of length n; each byte is a weight, and a zero byte
// skips its bin, so sparse pmfs are common.
func (d *fuzzBytes) pmf(n int) []float64 {
	p := make([]float64, n)
	var total float64
	for i := range p {
		p[i] = float64(d.next())
		total += p[i]
	}
	if total == 0 {
		p[0], total = 1, 1
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// FuzzJumpCertificate runs one jump attempt on an iterator of at most 64
// bins whose increment pmfs, iterates, previous iterates, increment ratio
// and extrapolation length are decoded from the fuzz data. Every candidate
// the attempt keeps must pass the dense check; a process whose candidate is
// dropped must keep its iterate; and a watchdog error commits nothing.
func FuzzJumpCertificate(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{31, 200, 0, 0, 9, 0, 3, 255, 17, 0, 0, 1, 128, 64, 5})
	f.Add([]byte{63, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 4, 8, 16, 32, 64, 128, 255, 3})
	f.Add([]byte{3, 255, 1, 0, 0, 0, 0, 1, 255, 9, 200, 3, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzBytes{b: data}
		m := 1 + int(d.next())%64
		wl, wh := d.pmf(2*m+1), d.pmf(2*m+1)
		ql, pl := d.pmf(m+1), d.pmf(m+1)
		qh, ph := d.pmf(m+1), d.pmf(m+1)
		it := stepIterator(t, m, ql, qh, wl, wh)
		it.qlNext, it.qhNext = pl, ph
		for _, c := range []*jumpState{&it.jumpL, &it.jumpH} {
			c.prev, c.last = 1, (float64(d.next())+1)/257
			c.scale = float64(1 + d.next()%64)
		}
		it.certified = d.next()%2 == 0
		it.lowerLoss, it.upperLoss = it.lossOf(it.ql, it.qh, 1, 1)
		lower, upper, err := it.jump()
		if err != nil {
			if !errors.Is(err, ErrNumeric) {
				t.Fatalf("jump failed with a non-numeric error: %v", err)
			}
			if !slices.Equal(it.ql, ql) || !slices.Equal(it.qh, qh) || it.iterations != 0 {
				t.Fatalf("a failed attempt committed: %v", err)
			}
			return
		}
		for _, p := range []struct {
			name   string
			o      jumpOutcome
			before []float64
			after  []float64
			cand   []float64
			w      []float64
			upper  bool
		}{
			{"lower", lower, ql, it.ql, it.jumpL.cand, wl, false},
			{"upper", upper, qh, it.qh, it.jumpH.cand, wh, true},
		} {
			switch p.o {
			case jumpNone:
				t.Fatalf("%s: no candidate, but the increment ratio lies in (0, 1)", p.name)
			case jumpRejected:
				if !slices.Equal(p.after, p.before) {
					t.Fatalf("%s: a rejected candidate moved the iterate", p.name)
				}
			case jumpAccepted:
				if err := denseCertified(p.cand, p.w, p.upper); err != nil {
					t.Fatalf("%s: accepted candidate at M = %d: %v", p.name, m, err)
				}
			}
		}
	})
}

// TestJumpFaultCommitsNothing: a convolution fault injected into a jump
// attempt trips the watchdog, and the iterator keeps its last healthy
// state: bounds, iteration count, iterates and jump schedule.
func TestJumpFaultCommitsNothing(t *testing.T) {
	defer faultinject.Reset()
	it, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Step until the next iteration would be an attempt with a candidate.
	for it.plain < jumpHistory || !hasCandidate(it.jumpL) && !hasCandidate(it.jumpH) {
		if err := it.advance(); err != nil {
			t.Fatal(err)
		}
		if it.iterations > 1000 {
			t.Fatal("no jump attempt within 1000 iterations")
		}
	}
	lo, hi := it.LossBounds()
	n := it.Iterations()
	ql, qh := it.LowerOccupancy(), it.UpperOccupancy()
	jl, jh := it.jumpL, it.jumpH
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		xs[len(xs)/2] = math.NaN()
	})
	stepErr := it.advance()
	var ne *NumericError
	if !errors.As(stepErr, &ne) || ne.Kind != HealthNotFinite {
		t.Fatalf("want a not-finite error from the attempt, got %v", stepErr)
	}
	if faultinject.Fired(faultinject.SolverConvolution) == 0 {
		t.Fatal("injection hook never fired")
	}
	lo2, hi2 := it.LossBounds()
	if lo2 != lo || hi2 != hi || it.Iterations() != n ||
		!slices.Equal(it.ql, ql) || !slices.Equal(it.qh, qh) ||
		it.jumpL.scale != jl.scale || it.jumpH.scale != jh.scale || it.plain < jumpHistory {
		t.Fatalf("the failed attempt committed: [%v, %v] n=%d -> [%v, %v] n=%d", lo, hi, n, lo2, hi2, it.Iterations())
	}
}

// TestJumpCertifiedDirection pins the sense of the certificate: a step that
// moves mass up certifies a lower candidate and not an upper one, a step
// that moves it down the reverse, and a step that leaves it in place
// certifies both, since the comparison has no tolerance to lose.
func TestJumpCertifiedDirection(t *testing.T) {
	q := []float64{0.1, 0.2, 0.3, 0.25, 0.15}
	up := []float64{0, 0.1, 0.2, 0.3, 0.4}     // q moved up one bin, capped at B
	down := []float64{0.3, 0.3, 0.25, 0.15, 0} // q moved down one bin, floored at 0
	for _, c := range []struct {
		name         string
		t            []float64
		lower, upper bool
	}{
		{"up", up, true, false},
		{"down", down, false, true},
		{"still", q, true, true},
	} {
		if got := jumpCertified(q, c.t, false); got != c.lower {
			t.Errorf("step %s: lower certified %v, want %v", c.name, got, c.lower)
		}
		if got := jumpCertified(q, c.t, true); got != c.upper {
			t.Errorf("step %s: upper certified %v, want %v", c.name, got, c.upper)
		}
	}
}

// hasCandidate reports whether a process's history yields a candidate.
func hasCandidate(c jumpState) bool {
	r := c.last / c.prev
	return r > 0 && r < 1
}

// TestJumpMetrics: over the golden cases, jump attempts and accepted
// processes are counted, each attempt is also a step, and no attempt
// accepts more than its two processes: accepted ≤ 2·attempts ≤ 2·steps.
func TestJumpMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	for _, c := range goldenCases(t) {
		cfg := c.cfg
		cfg.Recorder = reg
		if _, err := SolveModel(c.m, cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	steps := reg.CounterValue(obs.MetricSolverSteps)
	attempts := reg.CounterValue(obs.MetricSolverJumpAttempts)
	accepted := reg.CounterValue(obs.MetricSolverJumpsAccepted)
	if !(accepted > 0 && accepted <= 2*attempts && attempts <= steps) {
		t.Fatalf("jump counters out of order: %v accepted, %v attempts, %v steps", accepted, attempts, steps)
	}
	t.Logf("%v steps, %v attempts, %v processes accepted", steps, attempts, accepted)
}
