package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"lrd"
	"lrd/internal/core"
)

// fig4Util is the utilization of the paper's Fig. 4.
const fig4Util = 0.8

// referencePath holds the committed brackets of every Fig. 4 cell on each
// trace of tracePool.
const referencePath = "bench/testdata/fig4-brackets.json"

// fig4Grid is the paper's full Fig. 4 grid, defined here rather than
// taken from the experiment registry so that a registry change cannot
// silently change the benchmark: 9 log-spaced normalized buffers from
// 10 ms to 3 s by 9 log-spaced cutoff lags from 50 ms to 100 s plus no
// cutoff, 90 cells. A smoke run keeps the first cell.
func fig4Grid(smoke bool) (buffers, cutoffs []float64) {
	buffers, cutoffs = logspace(0.01, 3, 9), append(logspace(0.05, 100, 9), math.Inf(1))
	if smoke {
		return buffers[:1], cutoffs[:1]
	}
	return buffers, cutoffs
}

func logspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(math.Log(lo) + (math.Log(hi)-math.Log(lo))*float64(i)/float64(n-1))
	}
	out[0], out[n-1] = lo, hi
	return out
}

// tracePool holds the seeds of the MTV stand-in traces, lrd.MTVModel(s),
// that the sweeps run on. What a Fig. 4 pass costs depends on its trace:
// over trace seeds 1 to 160 the slowest cell takes 1 to 4 s, and the
// two-worker pass time has an interquartile range of 17% of its median,
// which alone would spread the benchmark's run medians by 10 to 13%. The
// pool keeps the traces within 4% of trace 1's two-worker pass time and
// 10% of its 90th-percentile cell, both counted in deterministic solver
// work (M·log₂M summed over every Lindley step of every cell), so every
// seed poses new inputs of about the same cost. Every trace of the pool
// has committed reference brackets (referencePath).
var tracePool = []int64{1, 12, 13, 14, 17, 21, 28, 39, 41, 71, 79, 80, 84, 98, 105, 136, 155}

// traceSeed is the trace that pass k of a run with the given seed sweeps:
// the seed picks the first trace, and a stride through the pool (its
// length is prime) the rest, so that no trace repeats within a run of
// fewer passes than the pool holds.
func traceSeed(seed int64, pass int) int64 {
	n := int64(len(tracePool))
	first := ((seed-1)%n + n) % n
	stride := 1 + ((seed-1)%(n-1)+(n-1))%(n-1)
	return tracePool[(first+int64(pass)*stride)%n]
}

// cell is one solved grid cell as the checks see it.
type cell struct {
	Buffer    float64
	Cutoff    float64
	Loss      float64
	Lower     float64
	Upper     float64
	Converged bool
	Degraded  string
}

// cellsOf converts a sweep's points into cells.
func cellsOf(pts []core.Point) []cell {
	out := make([]cell, len(pts))
	for i, p := range pts {
		out[i] = cell{p.NormalizedBuffer, p.Cutoff, p.Loss, p.Lower, p.Upper, p.Converged, string(p.Degraded)}
	}
	return out
}

// refCell is one reference bracket.
type refCell struct {
	Lower, Upper float64
}

// references is the committed reference file: the grid, and for each
// trace seed of the pool the bracket [lower, upper] of every cell in
// row-major (buffer-outer) order.
type references struct {
	Util    float64                 `json:"util"`
	Buffers []float64               `json:"buffers_s"`
	Cutoffs []string                `json:"cutoffs_s"` // "inf" for no cutoff
	Traces  map[string][][2]float64 `json:"traces"`
}

func formatCutoffs(cutoffs []float64) []string {
	out := make([]string, len(cutoffs))
	for i, c := range cutoffs {
		out[i] = "inf"
		if !math.IsInf(c, 1) {
			out[i] = strconv.FormatFloat(c, 'g', -1, 64)
		}
	}
	return out
}

// loadReferences reads the committed brackets, keyed by trace seed and
// then by grid indices (buffer i, cutoff j). It refuses a file made for
// another grid.
func loadReferences(root string) (map[int64]map[[2]int]refCell, error) {
	raw, err := os.ReadFile(filepath.Join(root, referencePath))
	if err != nil {
		return nil, err
	}
	var r references
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	buffers, cutoffs := fig4Grid(false)
	if r.Util != fig4Util || fmt.Sprint(r.Buffers) != fmt.Sprint(buffers) || fmt.Sprint(r.Cutoffs) != fmt.Sprint(formatCutoffs(cutoffs)) {
		return nil, fmt.Errorf("%s was made for another grid or utilization", referencePath)
	}
	out := map[int64]map[[2]int]refCell{}
	for key, brackets := range r.Traces {
		seed, err := strconv.ParseInt(key, 10, 64)
		if err != nil || len(brackets) != len(buffers)*len(cutoffs) {
			return nil, fmt.Errorf("%s: trace %q: bad key or %d brackets", referencePath, key, len(brackets))
		}
		m := map[[2]int]refCell{}
		for k, b := range brackets {
			m[[2]int{k / len(cutoffs), k % len(cutoffs)}] = refCell{b[0], b[1]}
		}
		out[seed] = m
	}
	return out, nil
}

// lossFloor is the solver's default floor: an upper bound below it is
// reported as zero loss.
const lossFloor = 1e-10

// checkSweep returns one message per failed check on a grid of nb×nc
// cells in row-major (buffer-outer) order: every cell converged and not
// degraded, with an ordered bracket around its reported loss; and loss
// nonincreasing in buffer in the bracket sense, lower(b[i+1]) <=
// upper(b[i]).
func checkSweep(cells []cell, nb, nc int) []string {
	var bad []string
	if len(cells) != nb*nc {
		return []string{fmt.Sprintf("sweep returned %d cells, want %d", len(cells), nb*nc)}
	}
	for i := 0; i < nb; i++ {
		for j := 0; j < nc; j++ {
			c := cells[i*nc+j]
			at := fmt.Sprintf("cell (b=%g, tc=%g)", c.Buffer, c.Cutoff)
			switch {
			case !c.Converged || c.Degraded != "":
				bad = append(bad, fmt.Sprintf("%s did not converge (degraded %q)", at, c.Degraded))
			case !(c.Lower <= c.Upper):
				bad = append(bad, fmt.Sprintf("%s has an inverted bracket [%g, %g]", at, c.Lower, c.Upper))
			case !(c.Lower <= c.Loss && c.Loss <= c.Upper) && !(c.Loss == 0 && c.Upper <= lossFloor):
				bad = append(bad, fmt.Sprintf("%s loss %g outside its bracket [%g, %g]", at, c.Loss, c.Lower, c.Upper))
			}
			if i > 0 {
				prev := cells[(i-1)*nc+j]
				if c.Lower > prev.Upper {
					bad = append(bad, fmt.Sprintf("%s: loss increases with buffer: lower %g > upper %g at b=%g", at, c.Lower, prev.Upper, prev.Buffer))
				}
			}
		}
	}
	return bad
}

// checkOverlap checks that every cell's bracket intersects its reference
// bracket. Any two valid Prop. II.1 brackets of a queue contain its true
// loss and so intersect: numeric speedups pass and wrong answers fail. The
// references were computed once and committed, so a solver that goes
// wrong cannot agree with itself here.
func checkOverlap(cells []cell, nc int, ref map[[2]int]refCell) []string {
	var bad []string
	for k, c := range cells {
		r, ok := ref[[2]int{k / nc, k % nc}]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("cell (b=%g, tc=%g) has no reference bracket", c.Buffer, c.Cutoff))
		case c.Lower > r.Upper || r.Lower > c.Upper:
			bad = append(bad, fmt.Sprintf("cell (b=%g, tc=%g) bracket [%g, %g] misses the reference [%g, %g]",
				c.Buffer, c.Cutoff, c.Lower, c.Upper, r.Lower, r.Upper))
		}
	}
	return bad
}

// timedStore wraps the journal CellStore. The sweep calls Lookup just
// before it solves a cell and Store just after, so the interval between
// the two is the cell's wall time; the Store call alone is the journal
// append.
type timedStore struct {
	inner   *lrd.JournalStore
	mu      sync.Mutex
	started map[string]time.Time
	cells   []cellTime
}

type cellTime struct {
	key        string
	start, end time.Time
	append     time.Duration
}

func (s *timedStore) Lookup(key string) (json.RawMessage, bool) {
	now := time.Now()
	s.mu.Lock()
	s.started[key] = now
	s.mu.Unlock()
	return s.inner.Lookup(key)
}

func (s *timedStore) Store(key string, value any) error {
	t0 := time.Now()
	err := s.inner.Store(key, value)
	t1 := time.Now()
	s.mu.Lock()
	s.cells = append(s.cells, cellTime{key: key, start: s.started[key], end: t1, append: t1.Sub(t0)})
	s.mu.Unlock()
	return err
}

func (s *timedStore) Fail(key string, attempt int, err error) error {
	return s.inner.Fail(key, attempt, err)
}

// sweepPass is one run of the grid through lrd.LossVsBufferAndCutoff on a
// fresh journal, as lrdsweep -exp fig4 -journal runs it, with one worker
// per CPU.
type sweepPass struct {
	cells  []cell
	store  *timedStore
	t0, t1 time.Time
}

func runSweepPass(tm lrd.TraceModel, buffers, cutoffs []float64, cfg lrd.SolverConfig, journal string) (sweepPass, error) {
	js, err := lrd.OpenJournalStore(journal, lrd.JournalStoreOptions{})
	if err != nil {
		return sweepPass{}, err
	}
	defer os.Remove(journal)
	p := sweepPass{store: &timedStore{inner: js, started: map[string]time.Time{}}}
	sc := lrd.SweepConfig{Solver: cfg, Store: p.store, Workers: runtime.NumCPU()}
	p.t0 = time.Now()
	pts, err := lrd.LossVsBufferAndCutoff(context.Background(), tm, fig4Util, buffers, cutoffs, sc)
	p.t1 = time.Now()
	if cerr := js.Close(); err == nil {
		err = cerr
	}
	p.cells = cellsOf(pts)
	return p, err
}

// runSweep is the sweep-fig4 workload: the paper's headline computation,
// cold solves only, with no serving layer and no cache.
func runSweep(j *job) error {
	buffers, cutoffs := fig4Grid(j.smoke)
	journal := filepath.Join(j.tmp, "sweep.journal")
	refs, err := loadReferences(j.root)
	if err != nil {
		return err
	}

	cfg := lrd.SolverConfig{}
	var reg *lrd.MetricsRegistry
	if j.tr != nil {
		reg = lrd.NewMetricsRegistry()
		cfg.Recorder = reg
		cfg.Trace = newSolveTracker(j.tr).hook
	}
	var ms0, ms1 runtime.MemStats
	var passAlloc uint64 // bytes the passes allocated, the traces' synthesis left out
	var cellS, cellSum, wallSum []float64
	passes := 0
	for start := time.Now(); j.measuring(start); passes++ {
		// Set-up: synthesize and fit the pass's MTV stand-in trace, open a
		// journal, and solve one untimed warm-up cell so lazy caches fill.
		trace := traceSeed(j.seed, passes)
		var tm lrd.TraceModel
		err := j.setup(func() error {
			m, err := lrd.MTVModel(trace)
			if err != nil {
				return err
			}
			tm = m
			_, err = runSweepPass(tm, buffers[:1], cutoffs[:1], lrd.SolverConfig{}, journal)
			return err
		})
		if err != nil {
			return err
		}
		var p sweepPass
		runtime.ReadMemStats(&ms0)
		j.measure(len(buffers)*len(cutoffs), func() { p, err = runSweepPass(tm, buffers, cutoffs, cfg, journal) })
		runtime.ReadMemStats(&ms1)
		passAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		j.res.Attempted += len(buffers) * len(cutoffs)
		if err != nil {
			j.fail("pass %d: %v", passes, err)
			continue
		}
		for _, msg := range checkSweep(p.cells, len(buffers), len(cutoffs)) {
			j.fail("pass %d: %s", passes, msg)
		}
		for _, msg := range checkOverlap(p.cells, len(cutoffs), refs[trace]) {
			j.fail("pass %d (trace %d): %s", passes, trace, msg)
		}
		passID := j.tr.add("pass", 0, p.t0, p.t1, nil)
		var sum float64
		for _, c := range p.store.cells {
			d := c.end.Sub(c.start).Seconds()
			sum += d
			cellS = append(cellS, d)
			j.tr.add("cell", passID, c.start, c.end, map[string]any{"key": c.key, "append_s": c.append.Seconds()})
		}
		cellSum = append(cellSum, sum)
		wallSum = append(wallSum, p.t1.Sub(p.t0).Seconds())
	}
	j.fact("passes", float64(passes))
	if j.tr == nil {
		return nil
	}

	workers := float64(runtime.NumCPU())
	j.layer("core.cell_s.p50", quantile(cellS, 0.5))
	j.layer("core.cell_s.p90", quantile(cellS, 0.9))
	j.layer("core.cell_s.max", quantile(cellS, 1))
	j.layer("core.worker_idle_ratio", 1-sumOf(cellSum)/(workers*sumOf(wallSum)))

	passSpans, cellSpans, solveSpans := j.tr.named("pass"), j.tr.named("cell"), j.tr.named("solve")
	assign(solveSpans, cellSpans, true)
	j.tr.setParents(solveSpans)
	byPass := map[int][]span{}
	for _, c := range cellSpans {
		byPass[c.Parent] = append(byPass[c.Parent], c)
	}
	var passSelf []float64
	for _, p := range passSpans {
		passSelf = append(passSelf, selfTime(p, byPass[p.ID]))
	}
	j.layer("core.sweep_residual_s", median(passSelf))

	snap := reg.Snapshot()
	solves := snap.Counters["solver_solves_total"]
	j.layer("solver.iterations_per_solve", snap.Histograms["solver_solve_iterations"].Mean)
	j.layer("solver.final_bins_mean", snap.Histograms["solver_final_bins"].Mean)
	j.layer("solver.steps_total", snap.Counters["solver_steps_total"]/float64(passes))
	j.layer("solver.alloc_kb_per_solve", float64(passAlloc)/1024/solves)

	j.res.Residuals = []residualRow{
		residual("pass", "cell", passSpans, cellSpans),
		residual("cell", "solve", cellSpans, solveSpans),
		stepRow(solveSpans),
	}
	return nil
}

// regenReference rewrites the committed reference brackets from a sweep of
// the full grid on every trace of the pool. README.md says when this is
// allowed.
func (o *orchestrator) regenReference() int {
	fail := func(err error) int {
		fmt.Fprintf(o.stderr, "bench: %v\n", err)
		return 1
	}
	buffers, cutoffs := fig4Grid(false)
	if err := os.MkdirAll(o.outDir("tmp"), 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(o.outDir("tmp"), "reference-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	r := references{Util: fig4Util, Buffers: buffers, Cutoffs: formatCutoffs(cutoffs), Traces: map[string][][2]float64{}}
	for _, seed := range tracePool {
		tm, err := lrd.MTVModel(seed)
		if err != nil {
			return fail(err)
		}
		p, err := runSweepPass(tm, buffers, cutoffs, lrd.SolverConfig{}, filepath.Join(dir, "ref.journal"))
		if err != nil {
			return fail(err)
		}
		if bad := checkSweep(p.cells, len(buffers), len(cutoffs)); len(bad) > 0 {
			return fail(fmt.Errorf("refusing to write a reference that fails its own checks: trace %d: %s", seed, bad[0]))
		}
		brackets := make([][2]float64, len(p.cells))
		for k, c := range p.cells {
			brackets[k] = [2]float64{c.Lower, c.Upper}
		}
		r.Traces[strconv.FormatInt(seed, 10)] = brackets
		fmt.Fprintf(o.stderr, "trace %d: %d cells\n", seed, len(brackets))
	}
	if err := writeReferences(filepath.Join(o.root, referencePath), r); err != nil {
		return fail(err)
	}
	fmt.Fprintf(o.stdout, "wrote %s (%d traces)\n", referencePath, len(r.Traces))
	return 0
}

// writeReferences writes the reference file with one trace per line, in
// pool order, so that a regeneration diffs trace by trace.
func writeReferences(path string, r references) error {
	var b bytes.Buffer
	b.WriteString("{\n")
	for _, f := range []struct {
		key string
		v   any
	}{{"util", r.Util}, {"buffers_s", r.Buffers}, {"cutoffs_s", r.Cutoffs}} {
		raw, err := json.Marshal(f.v)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "  %q: %s,\n", f.key, raw)
	}
	var keys []string
	for _, seed := range tracePool {
		if key := strconv.FormatInt(seed, 10); r.Traces[key] != nil {
			keys = append(keys, key)
		}
	}
	b.WriteString("  \"traces\": {\n")
	for i, key := range keys {
		raw, err := json.Marshal(r.Traces[key])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %q: %s%s\n", key, raw, sep)
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
