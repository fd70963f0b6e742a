package source

import (
	"testing"

	"lrd/internal/dist"
	"lrd/internal/numerics"
)

// TestFormatMarginalRoundTrip: FormatMarginal must be a value-exact inverse
// of ParseMarginal — the fleet client ships marginals over the wire in this
// syntax, and remote sweeps are only byte-identical to local ones if every
// atom survives the round trip bit for bit.
func TestFormatMarginalRoundTrip(t *testing.T) {
	cases := []struct {
		name         string
		rates, probs []float64
	}{
		{"two-point", []float64{0, 2}, []float64{0.5, 0.5}},
		{"uneven", []float64{0, 1, 5.5}, []float64{0.2, 0.3, 0.5}},
		{"thirds", []float64{0.1, 2.25, 7}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
		{"tiny-probs", []float64{0, 1e-3, 12.75}, []float64{1e-9, 0.25, 0.749999999}},
		{"shortest-form-stress", []float64{0.1, 0.2, 0.30000000000000004}, []float64{0.1, 0.7, 0.2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := dist.NewMarginal(c.rates, c.probs)
			if err != nil {
				t.Fatal(err)
			}
			s := FormatMarginal(m)
			back, err := ParseMarginal(s)
			if err != nil {
				t.Fatalf("ParseMarginal(%q): %v", s, err)
			}
			if back.Len() != m.Len() {
				t.Fatalf("round trip changed atom count: %d -> %d", m.Len(), back.Len())
			}
			for i := 0; i < m.Len(); i++ {
				if back.Rate(i) != m.Rate(i) || back.Prob(i) != m.Prob(i) {
					t.Fatalf("atom %d: (%v, %v) -> (%v, %v) via %q",
						i, m.Rate(i), m.Prob(i), back.Rate(i), back.Prob(i), s)
				}
			}
		})
	}
}

// TestFormatMarginalSecondGeneration: formatting the round-tripped marginal
// again must yield the identical string (the fixed point is reached after
// one normalization, so repeated client→server hops cannot drift).
func TestFormatMarginalSecondGeneration(t *testing.T) {
	m, err := dist.NewMarginal([]float64{0.1, 2.25, 7}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	if err != nil {
		t.Fatal(err)
	}
	s1 := FormatMarginal(m)
	back, err := ParseMarginal(s1)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := FormatMarginal(back); s2 != s1 {
		t.Fatalf("second-generation drift: %q -> %q", s1, s2)
	}
}

func TestParseMarginal(t *testing.T) {
	m, err := ParseMarginal("0:0.5,2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.Rate(0) != 0 || m.Rate(1) != 2 {
		t.Fatalf("parsed %v", m)
	}
	if !numerics.AlmostEqual(m.Mean(), 1, 1e-12) {
		t.Fatalf("mean = %v", m.Mean())
	}
}

func TestParseMarginalRenormalizes(t *testing.T) {
	// NewMarginal rejects non-unit mass, so mismatched probabilities are
	// an error rather than silently renormalized.
	if _, err := ParseMarginal("1:0.3,2:0.3"); err == nil {
		t.Fatal("want error for probabilities not summing to 1")
	}
}

func TestParseMarginalErrors(t *testing.T) {
	cases := []string{
		"",
		"1",
		"1:2:3",
		"x:0.5,2:0.5",
		"1:y,2:0.5",
		"1:-0.5,2:1.5",
	}
	for _, c := range cases {
		if _, err := ParseMarginal(c); err == nil {
			t.Errorf("ParseMarginal(%q) accepted", c)
		}
	}
}
