package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one definition of the workloads and
// metrics, read at run time so that the program and the file cannot drift.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return s, errors.New("BENCHMARK.json: run_seconds, workloads and end_to_end are required")
	}
	return s, nil
}

func (s benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// repoRoot finds the repository root from the working directory: the
// root itself (bench/run.sh changes there) or bench/ (go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if fileExists(filepath.Join(dir, "lrd.go")) && fileExists(filepath.Join(dir, "cmd", "lrdserve")) {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root (bash bench/run.sh): lrd.go and cmd/lrdserve not found")
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// orchestrator runs workloads in child processes and turns their reports
// into metrics, result files and comparisons.
type orchestrator struct {
	root    string
	spec    benchSpec
	seconds int
	scale   string
	stdout  io.Writer
	stderr  io.Writer
}

func (o *orchestrator) outDir(parts ...string) string {
	return filepath.Join(append([]string{o.root, "bench", "out"}, parts...)...)
}

// metricValue is one reported metric, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one benchmark run: one workload untraced, or one or more
// workloads traced together with the layer probes.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      int                    `json:"trace"`
	Seconds    int                    `json:"seconds"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	ErrorRatio float64                `json:"error_ratio"`
	Metrics    map[string]metricValue `json:"metrics"`
	Provenance provenance             `json:"provenance"`
	Children   []workloadResult       `json:"children"`
}

// line is the result object printed as the last line of standard output.
func (r runResult) line() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func (r runResult) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", r.Workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-16s %-36s %14.6g (failed %d of %d attempted)\n", r.Workload, "error_ratio", r.ErrorRatio, r.Failed, r.Attempted)
	for _, c := range r.Children {
		if r.Trace == 0 {
			var s float64
			for _, u := range c.Units {
				s += u.Seconds
			}
			fmt.Fprintf(w, "%-16s %-36s %14d (%.1f s measured)\n", r.Workload, "units", len(c.Units), s)
		}
		for _, f := range c.FailureSamples {
			fmt.Fprintf(w, "%-16s FAILED: %s\n", c.Workload, f)
		}
	}
}

// child runs one workload (or the layer probes) in a fresh process, so
// that GC state, FFT plan caches and peak RSS do not leak between
// workloads, and returns its report.
func (o *orchestrator) child(workload string, seed int64, scale string, traced bool) (workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return workloadResult{}, err
	}
	// The deadline only guards against a hung child; a healthy run ends
	// within seconds of its measured time.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-scale", scale, "-traced="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Dir = o.root
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = o.stderr
	runErr := cmd.Run()
	var res workloadResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s child: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s child: unreadable report: %w", workload, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s child: %w", workload, runErr)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// e2eMetrics derives the end-to-end metrics from one untraced report.
func e2eMetrics(c workloadResult) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(c.SetupS),
		"ops_per_s":   c.opsPerSecond(),
		"peak_rss_mb": c.peakRSSMB(),
	}
}

// finish fills the verdict fields and attaches the named metrics, failing
// when the program and BENCHMARK.json disagree about which metrics exist.
func (o *orchestrator) finish(r *runResult, values map[string]float64, specs []metricSpec) error {
	for _, c := range r.Children {
		r.Attempted += c.Attempted
		r.Failed += c.Failures
	}
	r.Correct = r.Failed == 0
	if r.Attempted > 0 {
		r.ErrorRatio = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics = map[string]metricValue{}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s measured as %v", m.Name, v)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(specs) {
		return fmt.Errorf("measured %d metrics but BENCHMARK.json lists %d", len(values), len(specs))
	}
	r.Provenance = collectProvenance(o.root)
	return o.record(*r)
}

// untracedRun measures one workload's end-to-end metrics.
func (o *orchestrator) untracedRun(workload string, seed int64) (runResult, error) {
	c, err := o.child(workload, seed, o.scale, false)
	if err != nil {
		return runResult{}, err
	}
	r := runResult{Workload: workload, Seed: seed, Seconds: o.seconds, Children: []workloadResult{c}}
	return r, o.finish(&r, e2eMetrics(c), o.spec.EndToEnd)
}

// tracedRun runs the named workloads traced at the chosen scale, every
// other workload traced at smoke scale, and the layer probes, so that
// each traced run reports every per-layer metric: a metric owned by a
// workload comes from that workload's run, the rest from the probes.
func (o *orchestrator) tracedRun(names []string, seed int64) (runResult, error) {
	r := runResult{Workload: strings.Join(names, "+"), Seed: seed, Trace: 1, Seconds: o.seconds}
	values := map[string]float64{}
	for _, w := range append(o.spec.workloadNames(), probeWorkload) {
		scale := scaleSmoke
		if contains(names, w) || w == probeWorkload {
			scale = o.scale
		}
		c, err := o.child(w, seed, scale, true)
		if err != nil {
			return r, err
		}
		for k, v := range c.Layer {
			if _, dup := values[k]; dup {
				return r, fmt.Errorf("per-layer metric %s reported twice", k)
			}
			values[k] = v
		}
		r.Children = append(r.Children, c)
	}
	if err := o.finish(&r, values, o.spec.PerLayer); err != nil {
		return r, err
	}
	return r, o.writeLayers(r, names)
}

// record writes the run's full report under bench/out/runs/.
func (o *orchestrator) record(r runResult) error {
	dir := o.outDir("runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%019d-%s-s%d-t%d.json", time.Now().UnixNano(), r.Workload, r.Seed, r.Trace)
	return writeJSON(filepath.Join(dir, name), r)
}

// latestUntraced returns the most recent untraced report of a workload
// recorded in this checkout, for the traced run's overhead estimate.
func (o *orchestrator) latestUntraced(workload string) (workloadResult, bool) {
	files, _ := filepath.Glob(filepath.Join(o.outDir("runs"), "*-"+workload+"-s*-t0.json"))
	sort.Strings(files)
	for i := len(files) - 1; i >= 0; i-- {
		var r runResult
		raw, err := os.ReadFile(files[i])
		if err == nil && json.Unmarshal(raw, &r) == nil && len(r.Children) == 1 && r.Children[0].Scale == o.scale {
			return r.Children[0], true
		}
	}
	return workloadResult{}, false
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// provenance identifies the code and the machine behind a result.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Time       string `json:"time"`
}

func collectProvenance(root string) provenance {
	p := provenance{
		Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	// A checkout without git history of its own (an exported tree, even
	// one inside another repository) keeps "unknown".
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	f := strings.Fields(string(out))
	top, rerr := filepath.EvalSymlinks(root)
	if err == nil && rerr == nil && len(f) == 2 && f[0] == top {
		p.Commit = f[1]
		st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
		p.Dirty = err == nil && len(bytes.TrimSpace(st)) > 0
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sameMachine reports whether two results can be compared: the same
// platform, CPU model and CPU count.
func (p provenance) sameMachine(q provenance) bool {
	return p.GOOS == q.GOOS && p.GOARCH == q.GOARCH && p.CPU == q.CPU && p.NProc == q.NProc
}
