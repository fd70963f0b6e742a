package source

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"lrd/internal/dist"
)

// ModelFlags registers the shared -model/-model-params flag pair on fs and
// returns a closure that parses them (after fs.Parse) into model specs.
// -model accepts a comma-separated list of registry names; -model-params a
// "key=value,…" list applied to every listed model. The default is the
// single fluid spec, whose results are bit-identical to the pre-registry
// code paths.
func ModelFlags(fs *flag.FlagSet) func() ([]Spec, error) {
	model := fs.String("model", "fluid",
		"traffic model(s), comma-separated: "+strings.Join(Names(), ", "))
	params := fs.String("model-params", "",
		"model parameters as key=value,… applied to every -model entry")
	return func() ([]Spec, error) {
		return ParseSpecs(*model, *params)
	}
}

// ParseMarginal parses an inline "rate:prob,rate:prob,…" marginal (the
// lrdloss/lrdtrace flag syntax).
func ParseMarginal(s string) (dist.Marginal, error) {
	var rates, probs []float64
	for _, pair := range strings.Split(s, ",") {
		rp := strings.Split(pair, ":")
		if len(rp) != 2 {
			return dist.Marginal{}, fmt.Errorf("bad marginal atom %q (want rate:prob)", pair)
		}
		r, err := strconv.ParseFloat(rp[0], 64)
		if err != nil {
			return dist.Marginal{}, fmt.Errorf("bad rate %q: %v", rp[0], err)
		}
		p, err := strconv.ParseFloat(rp[1], 64)
		if err != nil {
			return dist.Marginal{}, fmt.Errorf("bad probability %q: %v", rp[1], err)
		}
		rates = append(rates, r)
		probs = append(probs, p)
	}
	return dist.NewMarginal(rates, probs)
}

// FormatMarginal renders a marginal back into the inline "rate:prob,…"
// flag syntax, each float in shortest round-trippable form — the inverse
// of ParseMarginal, used by the fleet client to ship a locally-built
// source to an lrdserve replica through the same parser that validates
// curl requests. Round-tripping a normalized marginal is value-exact:
// its probabilities already sum to one, so ParseMarginal's
// renormalization divides by exactly 1.0.
func FormatMarginal(m dist.Marginal) string {
	var b strings.Builder
	for i := 0; i < m.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(m.Rate(i), 'g', -1, 64))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(m.Prob(i), 'g', -1, 64))
	}
	return b.String()
}
