// Command bench is the end-to-end benchmark of the lrd repository. It
// drives two workloads — the paper's Fig. 4 sweep and a provisioning pack
// — through the public lrd facade, checks every answer, and prints each
// end-to-end metric by name with its unit. A traced run (-trace 1) times
// calls into each layer from the outside, fits traces, probes the real
// lrdserve binary, and writes a per-layer ledger with residuals to
// bench/out/traced/.
//
// Run it from the repository root with
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//
// See README.md for every flag, workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

// childEnv marks a process started by the orchestrator to run one
// workload; the test binary honours it too, so tests exercise the same
// child path as real runs.
const childEnv = "LRD_BENCH_CHILD"

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the orchestrator: it parses flags, dispatches to a mode, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all, one after another)")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 0, "measured seconds per run (default: run_seconds from BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced run: report the per-layer metrics and write bench/out/traced/")
		scale    = fs.String("scale", scaleFull, "full, or smoke for a seconds-long run of every workload")
		sets     = fs.Int("sets", 0, "run N sets of -runs seeds per workload and write bench/out/sets/set-K.json")
		runs     = fs.Int("runs", 10, "runs per workload in each set (-sets) or pair side (-pairs)")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare PARENT.json CHANGE.json")
		force    = fs.Bool("force", false, "with -compare: accept files recorded on different machines")
		pairs    = fs.Int("pairs", 0, "run N alternating pairs of -parent and this checkout, then compare")
		parent   = fs.String("parent", "", "with -pairs: root of the parent checkout (it must hold bench/run.sh)")
		regen    = fs.Bool("regen-reference", false, "rewrite bench/testdata/fig4-seed1-brackets.json (see README)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *scale != scaleFull && *scale != scaleSmoke {
		fmt.Fprintf(stderr, "bench: -scale must be %s or %s\n", scaleFull, scaleSmoke)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	o := orchestrator{root: root, spec: spec, seconds: *seconds, scale: *scale, stdout: stdout, stderr: stderr}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: PARENT.json CHANGE.json")
			return 2
		}
		return o.compareFiles(fs.Arg(0), fs.Arg(1), *force)
	case *regen:
		return o.regenReference()
	case *pairs > 0:
		if *parent == "" {
			fmt.Fprintln(stderr, "bench: -pairs needs -parent DIR")
			return 2
		}
		return o.runPairs(*parent, *pairs, *force)
	case *sets > 0:
		return o.runSets(*sets, *runs)
	}

	names := spec.workloadNames()
	if *workload != "" {
		if !contains(names, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	var results []runResult
	if *trace == 1 {
		res, err := o.tracedRun(names, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		results = append(results, res)
	} else {
		for _, name := range names {
			res, err := o.untracedRun(name, *seed)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			results = append(results, res)
		}
	}
	code := 0
	for _, res := range results {
		// The human-readable table goes to stderr so that the last line of
		// standard output is always the machine-readable result.
		res.print(stderr)
		line, err := json.Marshal(res.line())
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
