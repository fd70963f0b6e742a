package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type for the text exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricHelp carries HELP text for the well-known metric names. Unknown
// names fall back to a generic line so every family still gets a HELP.
var metricHelp = map[string]string{
	MetricSolverSolves:          "Solves started.",
	MetricSolverConverged:       "Solves that reached the requested relative gap.",
	MetricSolverDegraded:        "Solves that returned a degraded (best-effort) result, by reason.",
	MetricSolverNumericErrors:   "Solves aborted by the numeric-health watchdog.",
	MetricSolverSteps:           "Bound iterations executed across all solves.",
	MetricSolverStepSeconds:     "Wall time of one bound iteration.",
	MetricSolverSolveSeconds:    "Wall time of one full solve.",
	MetricSolverSolveIterations: "Bound iterations needed by one solve.",
	MetricSolverFinalBins:       "Grid resolution M at the end of one solve.",
	MetricSolverStartBins:       "Grid resolution M at the start of one solve.",
	MetricSolverCertifiedStarts: "Cold solves whose upper bound started at a certified exponential instead of full.",
	MetricSolverRefines:         "M-doubling refinements across all solves.",
	MetricSolverBins:            "Current grid resolution M.",
	MetricSolverGap:             "Current relative gap between the loss bounds.",
	MetricSolverMassDrift:       "Absolute probability-mass drift of the current iterate.",
	MetricCoreCellsPlanned:      "Sweep cells planned.",
	MetricCoreCellsStarted:      "Sweep cells started.",
	MetricCoreCellsCompleted:    "Sweep cells completed.",
	MetricCoreCellsDegraded:     "Sweep cells that completed degraded.",
	MetricCoreCellSeconds:       "Wall time of one sweep cell.",
	MetricCoreSweepSeconds:      "Wall time of one whole sweep.",
	MetricCoreWorkers:           "Sweep worker-pool size.",
	MetricCoreCellsResumed:      "Cells skipped via journal replay.",
	MetricCoreCellsRetried:      "Extra cell attempts beyond the first.",
	MetricCoreJournalBytes:      "Bytes appended to the work journal.",
	MetricCoreJournalCorrupt:    "Corrupt journal lines tolerated on load.",
	MetricCoreLeasesClaimed:     "Cells leased by this worker.",
	MetricCoreLeasesRenewed:     "Lease heartbeat renewals appended.",
	MetricCoreLeasesReleased:    "Leases released without completion.",
	MetricCoreLeasesStolen:      "Expired leases this worker took over.",
	MetricCoreLeasesFenced:      "Own leases lost to a newer fencing epoch.",
	MetricCoreLeasesLost:        "Claim races lost to another worker.",
	MetricCoreCellsAdopted:      "Cells completed by other workers and adopted locally.",
	MetricCoreLeaseWaitSecs:     "Time spent waiting on other workers' cells.",
	MetricCoreLeasesHeld:        "Leases currently held.",
	MetricCoreLeaseEpoch:        "Highest fencing epoch observed.",
	MetricServeRequests:         "HTTP requests received.",
	MetricServeAdmitted:         "Requests admitted to a fresh solve.",
	MetricServeQueued:           "Admitted requests that waited for a slot.",
	MetricServeShed:             "Requests shed with 429.",
	MetricServeCoalesced:        "Requests coalesced onto an identical in-flight solve.",
	MetricServeCacheHits:        "Response-cache hits.",
	MetricServeCacheMisses:      "Response-cache misses.",
	MetricServeCacheEvicted:     "Response-cache evictions.",
	MetricServeCacheEntries:     "Response-cache entries.",
	MetricServeCacheWarmed:      "Cache entries warm-loaded from the journal.",
	MetricServeErrors:           "Request errors, by kind.",
	MetricServeInflight:         "Solves currently in flight.",
	MetricServeQueueDepth:       "Admission-queue depth.",
	MetricServeSolveSeconds:     "Wall time of one served solve.",
	MetricServeRequestSeconds:   "Wall time of one request.",
	MetricFFTPlanHits:           "FFT twiddle-plan cache hits.",
	MetricFFTPlanMisses:         "FFT twiddle-plan cache misses.",
	MetricFFTTransformSize:      "FFT transform sizes.",
	MetricFFTConvolveNaive:      "Convolutions done directly.",
	MetricFFTConvolveViaFFT:     "Convolutions done via FFT.",
	MetricSourceFitMaxError:     "Sup-norm correlation-fit error of the active model.",
}

// splitLabeled parses a name composed by Labeled back into its base name
// and single label pair. Names without a "{label=value}" suffix return
// empty label fields.
func splitLabeled(name string) (base, label, value string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, "", ""
	}
	inner := name[i+1 : len(name)-1]
	eq := strings.IndexByte(inner, '=')
	if eq < 0 {
		return name, "", ""
	}
	return name[:i], inner[:eq], inner[eq+1:]
}

// promName maps an arbitrary metric or label name onto the Prometheus
// identifier grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value for the exposition format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// promHelpEscape escapes HELP text (only backslash and newline).
func promHelpEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promValue formats a sample value.
func promValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

type promSample struct {
	label, value string // optional single label pair
	v            float64
}

type promFamily struct {
	name, kind string
	samples    []promSample
	hist       *HistogramSnapshot
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE per family, families sorted by
// name, histogram buckets cumulative with a trailing +Inf bucket equal to
// the sample count. Labeled names composed by Labeled are decomposed back
// into proper label syntax with escaped values.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	families := map[string]*promFamily{}
	add := func(name, kind string, v float64) {
		base, label, value := splitLabeled(name)
		base = promName(base)
		f := families[base]
		if f == nil {
			f = &promFamily{name: base, kind: kind}
			families[base] = f
		}
		if label != "" {
			label = promName(label)
		}
		f.samples = append(f.samples, promSample{label: label, value: value, v: v})
	}
	for name, v := range s.Counters {
		add(name, "counter", v)
	}
	for name, v := range s.Gauges {
		add(name, "gauge", v)
	}
	for name, h := range s.Histograms {
		base := promName(name)
		hc := h
		families[base] = &promFamily{name: base, kind: "histogram", hist: &hc}
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := families[name]
		help := metricHelp[name]
		if help == "" {
			help = "lrd " + f.kind + "."
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, promHelpEscape(help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.kind)
		if f.hist != nil {
			writePromHistogram(bw, name, f.hist)
			continue
		}
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].value < f.samples[j].value })
		for _, smp := range f.samples {
			if smp.label == "" {
				fmt.Fprintf(bw, "%s %s\n", name, promValue(smp.v))
			} else {
				fmt.Fprintf(bw, "%s{%s=\"%s\"} %s\n", name, smp.label, promEscape(smp.value), promValue(smp.v))
			}
		}
	}
	return bw.Flush()
}

func writePromHistogram(w io.Writer, name string, h *HistogramSnapshot) {
	cum := uint64(0)
	for _, b := range h.Buckets {
		if math.IsInf(b.Le, 1) {
			continue // folded into the mandatory +Inf bucket below
		}
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promValue(b.Le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, promValue(h.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// LintExposition validates text against a strict subset of the Prometheus
// exposition grammar: every sample line must parse, every family must be
// announced by a HELP line immediately followed by a TYPE line before its
// first sample, samples of one family must be contiguous, and histogram
// families must have strictly increasing `le` bounds, non-decreasing
// cumulative bucket counts, a +Inf bucket, and matching _sum/_count
// lines. It exists for the conformance tests but is exported so any layer
// serving /metrics can assert its own output.
func LintExposition(r io.Reader) error {
	type famState struct {
		kind          string
		typed, sealed bool
		lastLe        float64
		lastCum       uint64
		infCount      uint64
		haveInf       bool
		haveSum       bool
		count         uint64
		haveCount     bool
	}
	fams := map[string]*famState{}
	var current string
	lineNo := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kw, name, rest, err := parseComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			f := fams[name]
			switch kw {
			case "HELP":
				if f != nil {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				fams[name] = &famState{}
			case "TYPE":
				if f == nil {
					return fmt.Errorf("line %d: TYPE %s without preceding HELP", lineNo, name)
				}
				if f.typed {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: invalid TYPE %q", lineNo, rest)
				}
				f.typed, f.kind = true, rest
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name {
				if f := fams[base]; f != nil && f.kind == "histogram" {
					fam, suffix = base, sfx
				}
				break
			}
		}
		f := fams[fam]
		if f == nil || !f.typed {
			return fmt.Errorf("line %d: sample %s before HELP/TYPE for %s", lineNo, name, fam)
		}
		if current != fam {
			if f.sealed {
				return fmt.Errorf("line %d: family %s samples are not contiguous", lineNo, fam)
			}
			if cur := fams[current]; cur != nil {
				cur.sealed = true
			}
			current = fam
		}
		switch suffix {
		case "_bucket":
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			cnt := uint64(value)
			if le == "+Inf" {
				f.haveInf, f.infCount = true, cnt
			} else {
				lef, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le %q: %v", lineNo, le, err)
				}
				if f.lastCum > 0 || f.lastLe != 0 {
					if lef <= f.lastLe {
						return fmt.Errorf("line %d: le %g not increasing (prev %g)", lineNo, lef, f.lastLe)
					}
				}
				if cnt < f.lastCum {
					return fmt.Errorf("line %d: cumulative bucket count decreased (%d < %d)", lineNo, cnt, f.lastCum)
				}
				if f.haveInf {
					return fmt.Errorf("line %d: finite le bucket after +Inf", lineNo)
				}
				f.lastLe, f.lastCum = lef, cnt
			}
		case "_sum":
			f.haveSum = true
		case "_count":
			f.haveCount, f.count = true, uint64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, f := range fams {
		if !f.typed {
			return fmt.Errorf("family %s: HELP without TYPE", name)
		}
		if f.kind != "histogram" {
			continue
		}
		switch {
		case !f.haveInf:
			return fmt.Errorf("histogram %s: missing +Inf bucket", name)
		case !f.haveSum:
			return fmt.Errorf("histogram %s: missing _sum", name)
		case !f.haveCount:
			return fmt.Errorf("histogram %s: missing _count", name)
		case f.infCount != f.count:
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", name, f.infCount, f.count)
		case f.lastCum > f.count:
			return fmt.Errorf("histogram %s: last cumulative bucket %d exceeds _count %d", name, f.lastCum, f.count)
		}
	}
	return nil
}

func parseComment(line string) (kw, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	kw, name = fields[1], fields[2]
	if kw != "HELP" && kw != "TYPE" {
		return "", "", "", fmt.Errorf("unknown comment keyword %q", kw)
	}
	if !validPromName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kw, name, rest, nil
}

// parseSample parses `name{label="value",...} value` with full escape
// handling on label values.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	labels = map[string]string{}
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			lname := rest[:eq]
			if !validPromName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			val, remain, perr := parseQuoted(rest)
			if perr != nil {
				return "", nil, 0, fmt.Errorf("%v in %q", perr, line)
			}
			labels[lname] = val
			rest = remain
			if rest != "" && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	return name, labels, value, nil
}

// parseQuoted consumes a double-quoted, backslash-escaped string from the
// front of s, returning the decoded value and the remainder.
func parseQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quote")
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
