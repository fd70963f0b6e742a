package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lrd"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test is not instrumented for this).
type span struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Start    float64        `json:"start_s"` // seconds since the run began
	End      float64        `json:"end_s"`
	Workload string         `json:"workload"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs share the traced code path.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

func (t *tracer) add(name string, parent int, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Attrs: attrs,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// named returns copies of the spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// setParents records the parent links found by assign in the tracer.
func (t *tracer) setParents(kids []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range kids {
		t.spans[k.ID-1].Parent = k.Parent
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solveTracker rebuilds solve spans from the solver's public TracePoint
// stream: a solve ends at its Final point and began Elapsed seconds
// earlier, and each interval between two consecutive points at the same
// resolution is one Lindley step. Intervals across a resolution change
// include the refinement and are left to the solve's own time.
type solveTracker struct {
	tr   *tracer
	mu   sync.Mutex
	open map[uint64]*openSolve
}

type openSolve struct {
	last        time.Time
	bins, steps int
	stepS       float64
}

func newSolveTracker(tr *tracer) *solveTracker {
	return &solveTracker{tr: tr, open: map[uint64]*openSolve{}}
}

// hook is the SolverConfig.Trace callback; solves run concurrently.
func (s *solveTracker) hook(p lrd.TracePoint) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.open[p.Solve]
	if o == nil {
		o = &openSolve{}
		s.open[p.Solve] = o
	}
	if p.Final {
		delete(s.open, p.Solve)
		start := now.Add(-time.Duration(p.Elapsed * float64(time.Second)))
		s.tr.add("solve", 0, start, now, map[string]any{
			"iterations": p.Iteration, "bins": p.Bins, "timed_steps": o.steps, "step_s": o.stepS,
		})
		return
	}
	if !o.last.IsZero() && p.Bins == o.bins {
		o.steps++
		o.stepS += now.Sub(o.last).Seconds()
	}
	o.last, o.bins = now, p.Bins
}

// stepEstimate is the time a solve spent in Lindley steps: its mean timed
// step times its iteration count (step × steps).
func stepEstimate(s span) float64 {
	n, _ := s.Attrs["timed_steps"].(int)
	sum, _ := s.Attrs["step_s"].(float64)
	it, _ := s.Attrs["iterations"].(int)
	if n == 0 {
		return 0
	}
	return sum / float64(n) * float64(it)
}

// stepRow is the solve → step×steps row of the ledger: what the solves'
// Lindley steps explain of their time, the rest being table builds,
// refinements and bookkeeping.
func stepRow(solves []span) residualRow {
	r := residualRow{Parent: "solve", Children: "step×steps", N: len(solves)}
	for _, s := range solves {
		r.ParentS += s.dur()
		r.ChildS += stepEstimate(s)
	}
	r.SelfS = r.ParentS - r.ChildS
	if r.ParentS > 0 {
		r.Share = r.SelfS / r.ParentS
	}
	return r
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	var clipped [][2]float64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end float64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: the layer's own time, or the residual its children do
// not explain.
func selfTime(parent span, kids []span) float64 {
	ivs := make([][2]float64, len(kids))
	for i, k := range kids {
		ivs[i] = [2]float64{k.Start, k.End}
	}
	return parent.dur() - covered(parent.Start, parent.End, ivs)
}

// assign sets each child's Parent to the containing parent span that
// started closest before it. With oneToOne each parent takes at most one
// child (a sweep cell runs exactly one solve, which starts microseconds
// after the cell does); the closest pairs win first, so concurrent
// workers' overlapping cells are told apart.
func assign(kids, parents []span, oneToOne bool) {
	type cand struct {
		k, p int
		lag  float64
	}
	var cs []cand
	for ki, k := range kids {
		for pi, p := range parents {
			if p.Start <= k.Start && k.End <= p.End {
				cs = append(cs, cand{ki, pi, k.Start - p.Start})
			}
		}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].lag < cs[b].lag })
	kidDone := make([]bool, len(kids))
	parentUsed := make([]bool, len(parents))
	for _, c := range cs {
		if kidDone[c.k] || (oneToOne && parentUsed[c.p]) {
			continue
		}
		kids[c.k].Parent = parents[c.p].ID
		kidDone[c.k], parentUsed[c.p] = true, true
	}
}

// residualRow is one parent → children step of the layer ledger.
type residualRow struct {
	Parent   string  `json:"parent"`
	Children string  `json:"children"`
	N        int     `json:"n"`          // parent spans
	ParentS  float64 `json:"parent_s"`   // total parent time
	ChildS   float64 `json:"children_s"` // parent time covered by children
	SelfS    float64 `json:"self_s"`     // the residual: parent_s − children_s
	Share    float64 `json:"self_share"` // self_s / parent_s
}

// residual sums self time over parents whose children were linked by
// assign (or carry Parent ids already).
func residual(parentName, childName string, parents, kids []span) residualRow {
	byParent := map[int][]span{}
	for _, k := range kids {
		byParent[k.Parent] = append(byParent[k.Parent], k)
	}
	r := residualRow{Parent: parentName, Children: childName, N: len(parents)}
	for _, p := range parents {
		self := selfTime(p, byParent[p.ID])
		r.ParentS += p.dur()
		r.SelfS += self
	}
	r.ChildS = r.ParentS - r.SelfS
	if r.ParentS > 0 {
		r.Share = r.SelfS / r.ParentS
	}
	return r
}

// layersFile is bench/out/traced/layers.json: per traced workload, every
// per-layer metric with its source, the residual ledger, and the tracing
// overhead against the latest untraced run of the same workload.
type layersFile struct {
	Provenance provenance              `json:"provenance"`
	Workloads  map[string]layersRecord `json:"workloads"`
}

type layersRecord struct {
	Seed    int64                  `json:"seed"`
	Metrics map[string]layerMetric `json:"metrics"`
	// Residuals maps each workload to its parent → children ledger.
	Residuals map[string][]residualRow `json:"residuals"`
	// TraceOverhead is untraced ÷ traced ops_per_s − 1, or null when this
	// checkout holds no untraced run of the workload yet.
	TraceOverhead *float64 `json:"trace_overhead"`
}

type layerMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Source string  `json:"source"` // the child that measured it, and its scale
}

// writeLayers merges this traced run into layers.json, one record per
// workload traced at full scale.
func (o *orchestrator) writeLayers(r runResult, names []string) error {
	dir := o.outDir("traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "layers.json")
	lf := layersFile{Workloads: map[string]layersRecord{}}
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &lf) // a damaged file is simply rebuilt
		if lf.Workloads == nil {
			lf.Workloads = map[string]layersRecord{}
		}
	}
	lf.Provenance = r.Provenance
	units := map[string]string{}
	for _, m := range o.spec.PerLayer {
		units[m.Name] = m.Unit
	}
	rec := layersRecord{Seed: r.Seed, Metrics: map[string]layerMetric{}, Residuals: map[string][]residualRow{}}
	for _, c := range r.Children {
		for k, v := range c.Layer {
			rec.Metrics[k] = layerMetric{Value: v, Unit: units[k], Source: c.Workload + "@" + c.Scale}
		}
		if len(c.Residuals) > 0 {
			rec.Residuals[c.Workload] = c.Residuals
		}
	}
	for _, name := range names {
		rec := rec
		for _, c := range r.Children {
			if c.Workload != name {
				continue
			}
			if u, ok := o.latestUntraced(name); ok {
				ov := u.opsPerSecond()/c.opsPerSecond() - 1
				rec.TraceOverhead = &ov
			}
		}
		lf.Workloads[name] = rec
	}
	return writeJSON(path, lf)
}
