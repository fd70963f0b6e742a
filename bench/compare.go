package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// setFile holds repeated runs of the same code: a set (-sets) or one side
// of an alternating pair series (-pairs).
type setFile struct {
	Provenance provenance `json:"provenance"`
	Seconds    int        `json:"seconds"`
	Runs       []setRun   `json:"runs"`
}

type setRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// failed counts one workload's failed operations and checks over all runs.
func (s setFile) failed(workload string) int {
	n := 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}

// values returns one metric of one workload, ordered by seed, so that the
// i-th values of two files form a pair.
func (s setFile) values(workload, metric string) []float64 {
	var runs []setRun
	for _, r := range s.Runs {
		if _, ok := r.Metrics[metric]; ok && r.Workload == workload {
			runs = append(runs, r)
		}
	}
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].Seed < runs[b].Seed })
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// verdict is one workload × metric row of a comparison.
type verdict struct {
	Workload     string
	Metric       string
	ParentMedian float64
	ChangeMedian float64
	Worse        float64 // share by which the change's median is worse; negative is better
	Spread       float64 // the wider side's IQR as a share of its median
	Bound        float64
	Verdict      string // unchanged, regressed, unresolved or failing
	Pairs, Wins  int
	Gain         bool
	// Failed counts the workload's failed operations and checks over the
	// parent's and the change's runs.
	ParentFailed, ChangeFailed int
}

// judge applies the benchmark's two rules to one metric. No regression:
// the change's median may be worse than the parent's by at most the
// bound; where either side's spread is wider than the bound the metric is
// unresolved, unless every change run beats every parent run. Gain: at
// least ten pairs, the change winning at least nine tenths of them, and
// the medians further apart than the parent's interquartile range.
func judge(m metricSpec, parent, change []float64) verdict {
	lower := m.Better == "lower"
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	v := verdict{Metric: m.Name, Bound: m.Bound, ParentMedian: median(parent), ChangeMedian: median(change)}
	v.Worse = (v.ChangeMedian - v.ParentMedian) / math.Abs(v.ParentMedian)
	if !lower {
		v.Worse = -v.Worse
	}
	v.Spread = math.Max(iqrShare(parent), iqrShare(change))
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case v.Worse > m.Bound:
		v.Verdict = "regressed"
	case v.Spread > m.Bound && !allBetter:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "unchanged"
	}
	v.Pairs = min(len(parent), len(change))
	for i := 0; i < v.Pairs; i++ {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	q1, _, q3 := quartiles(parent)
	v.Gain = v.Pairs >= 10 && v.Wins*10 >= 9*v.Pairs &&
		math.Abs(v.ChangeMedian-v.ParentMedian) > q3-q1 && better(v.ChangeMedian, v.ParentMedian)
	return v
}

// compareSets judges every workload × end-to-end metric. Where the
// change's runs of a workload fail more operations or checks than the
// parent's, every row of that workload reads failing and shows no gain.
func compareSets(metrics []metricSpec, workloads []string, parent, change setFile) []verdict {
	var out []verdict
	for _, w := range workloads {
		pf, cf := parent.failed(w), change.failed(w)
		for _, m := range metrics {
			p, c := parent.values(w, m.Name), change.values(w, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(m, p, c)
			v.Workload, v.ParentFailed, v.ChangeFailed = w, pf, cf
			if cf > pf {
				v.Verdict, v.Gain = "failing", false
			}
			out = append(out, v)
		}
	}
	return out
}

// report prints the verdict table and returns the exit code: 1 when any
// row regressed or is unresolved.
func (o *orchestrator) report(vs []verdict) int {
	fmt.Fprintf(o.stdout, "%-16s %-16s %14s %14s %8s %8s %7s %-11s %6s %-5s %s\n",
		"workload", "metric", "parent_median", "change_median", "worse%", "spread%", "bound%", "verdict", "wins", "gain", "failed")
	code := 0
	for _, v := range vs {
		fmt.Fprintf(o.stdout, "%-16s %-16s %14.6g %14.6g %8.2f %8.2f %7.1f %-11s %3d/%-2d %-5v %d→%d\n",
			v.Workload, v.Metric, v.ParentMedian, v.ChangeMedian, 100*v.Worse, 100*v.Spread, 100*v.Bound,
			v.Verdict, v.Wins, v.Pairs, v.Gain, v.ParentFailed, v.ChangeFailed)
		if v.Verdict != "unchanged" {
			code = 1
		}
	}
	return code
}

func readSet(path string) (setFile, error) {
	var s setFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (o *orchestrator) compareFiles(parentPath, changePath string, force bool) int {
	parent, err := readSet(parentPath)
	if err != nil {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 2
	}
	change, err := readSet(changePath)
	if err != nil {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 2
	}
	if !parent.Provenance.sameMachine(change.Provenance) && !force {
		fmt.Fprintf(o.stderr, "bench: the files come from different machines (%s, %d CPUs vs %s, %d CPUs); pass -force to compare anyway\n",
			parent.Provenance.CPU, parent.Provenance.NProc, change.Provenance.CPU, change.Provenance.NProc)
		return 2
	}
	if parent.Seconds != change.Seconds {
		fmt.Fprintf(o.stderr, "bench: warning: run lengths differ (%d s vs %d s)\n", parent.Seconds, change.Seconds)
	}
	fmt.Fprintf(o.stdout, "parent %s (dirty %v)  change %s (dirty %v)\n",
		parent.Provenance.Commit, parent.Provenance.Dirty, change.Provenance.Commit, change.Provenance.Dirty)
	return o.report(compareSets(o.spec.EndToEnd, o.spec.workloadNames(), parent, change))
}

// setStat summarizes one workload × metric within a set.
type setStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`    // (q3 − q1) / median
	MAD    float64 `json:"mad_share"` // median absolute deviation / median
}

// spreads prints each workload × metric's median, quartiles and spread
// within one set, against the metric's bound, and returns them.
func (o *orchestrator) spreads(s setFile) map[string]map[string]setStat {
	out := map[string]map[string]setStat{}
	fmt.Fprintf(o.stdout, "%-16s %-16s %14s %14s %14s %4s %8s %7s\n",
		"workload", "metric", "median", "q1", "q3", "n", "spread%", "bound%")
	for _, w := range o.spec.workloadNames() {
		out[w] = map[string]setStat{}
		for _, m := range o.spec.EndToEnd {
			xs := s.values(w, m.Name)
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			st := setStat{Median: q2, Q1: q1, Q3: q3, N: len(xs), Spread: iqrShare(xs), MAD: mad(xs) / math.Abs(q2)}
			out[w][m.Name] = st
			fmt.Fprintf(o.stdout, "%-16s %-16s %14.6g %14.6g %14.6g %4d %8.2f %7.1f\n",
				w, m.Name, q2, q1, q3, st.N, 100*st.Spread, 100*m.Bound)
		}
	}
	return out
}

// runSets runs n sets of the given number of seeds per workload, each run
// with its own seed, interleaving the workloads; then it compares every
// later set with the first.
func (o *orchestrator) runSets(n, runs int) int {
	dir := o.outDir("sets")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 1
	}
	var sets []setFile
	summary := struct {
		Provenance provenance                      `json:"provenance"`
		Seconds    int                             `json:"seconds"`
		Runs       int                             `json:"runs_per_workload"`
		Sets       []map[string]map[string]setStat `json:"sets"`
	}{Provenance: collectProvenance(o.root), Seconds: o.seconds, Runs: runs}
	for k := 1; k <= n; k++ {
		s := setFile{Provenance: collectProvenance(o.root), Seconds: o.seconds}
		for r := 1; r <= runs; r++ {
			seed := int64((k-1)*runs + r)
			for _, w := range o.spec.workloadNames() {
				res, err := o.untracedRun(w, seed)
				if err != nil {
					fmt.Fprintf(o.stderr, "bench: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				fmt.Fprintf(o.stderr, "set %d run %d/%d %s seed %d: correct %v\n", k, r, runs, w, seed, res.Correct)
				s.Runs = append(s.Runs, setRun{Workload: w, Seed: seed, Correct: res.Correct,
					Attempted: res.Attempted, Failed: res.Failed, Metrics: flatten(res.Metrics)})
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("set-%d.json", k))
		if err := writeJSON(path, s); err != nil {
			fmt.Fprintf(o.stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(o.stdout, "set %d → %s\n", k, path)
		summary.Sets = append(summary.Sets, o.spreads(s))
		sets = append(sets, s)
	}
	if err := writeJSON(filepath.Join(dir, "summary.json"), summary); err != nil {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for k := 1; k < len(sets); k++ {
		fmt.Fprintf(o.stdout, "\nset 1 → set %d\n", k+1)
		if o.report(compareSets(o.spec.EndToEnd, o.spec.workloadNames(), sets[0], sets[k])) != 0 {
			code = 1
		}
	}
	for _, s := range sets {
		for _, r := range s.Runs {
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

func flatten(ms map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for k, v := range ms {
		out[k] = v.Value
	}
	return out
}

// runPairs alternates runs of the parent checkout and this one, n pairs
// per workload with the parent first in every other pair, then compares.
// Both sides run their own bench/run.sh; for a fair comparison both
// checkouts must hold the same bench/ directory.
func (o *orchestrator) runPairs(parentDir string, n int, force bool) int {
	parentRoot, err := filepath.Abs(parentDir)
	if err != nil {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 2
	}
	if !fileExists(filepath.Join(parentRoot, "bench", "run.sh")) {
		fmt.Fprintf(o.stderr, "bench: %s has no bench/run.sh; copy this bench/ directory there first\n", parentRoot)
		return 2
	}
	sides := []struct {
		root string
		set  *setFile
	}{
		{parentRoot, &setFile{Provenance: collectProvenance(parentRoot), Seconds: o.seconds}},
		{o.root, &setFile{Provenance: collectProvenance(o.root), Seconds: o.seconds}},
	}
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, w := range o.spec.workloadNames() {
			for _, k := range order {
				r, err := o.runCheckout(sides[k].root, w, seed)
				if err != nil {
					fmt.Fprintf(o.stderr, "bench: pair %d %s in %s: %v\n", i+1, w, sides[k].root, err)
					return 1
				}
				sides[k].set.Runs = append(sides[k].set.Runs, r)
				fmt.Fprintf(o.stderr, "pair %d/%d %s %s: correct %v\n", i+1, n, w, sides[k].root, r.Correct)
			}
		}
	}
	dir := o.outDir("pairs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 1
	}
	for k, name := range []string{"parent.json", "change.json"} {
		if err := writeJSON(filepath.Join(dir, name), *sides[k].set); err != nil {
			fmt.Fprintf(o.stderr, "bench: %v\n", err)
			return 1
		}
	}
	return o.compareFiles(filepath.Join(dir, "parent.json"), filepath.Join(dir, "change.json"), force)
}

// runCheckout runs one workload in a checkout through its bench/run.sh
// and reads the result line. A run whose checks fail still counts, with
// its failures.
func (o *orchestrator) runCheckout(root, workload string, seed int64) (setRun, error) {
	cmd := exec.Command("bash", filepath.Join(root, "bench", "run.sh"),
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds))
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, o.stderr
	runErr := cmd.Run()
	var res struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return setRun{}, fmt.Errorf("no result line (%v)", runErr)
	}
	return setRun{Workload: workload, Seed: seed, Correct: res.Correct, Attempted: res.Attempted,
		Failed: res.Failed, Metrics: flatten(res.Metrics)}, nil
}
