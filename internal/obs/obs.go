// Package obs is the repository's zero-dependency telemetry layer: atomic
// counters, gauges, and log-bucketed histograms collected in a Registry,
// plus the Recorder interface the hot paths (solver steps, sweep workers)
// accept. A nil Recorder disables instrumentation entirely
// — call sites guard with a single nil check and pass constant metric
// names, so the uninstrumented path costs nothing and allocates nothing.
//
// The Registry exports a point-in-time Snapshot as JSON (the cmd/ tools'
// -metrics flag), publishes itself through expvar for the -pprof debug
// server, and backs the periodic -progress reporter. Metric names are
// flat strings; the few labeled metrics (e.g. degraded-solve reasons)
// compose the label into the name with Labeled.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Recorder receives telemetry events. Registry implements it; hot paths
// hold a possibly-nil Recorder and skip all recording when it is nil.
type Recorder interface {
	// Add increments the named counter by delta (monotone accumulation).
	Add(name string, delta float64)
	// Set stores the named gauge's current value (last write wins).
	Set(name string, value float64)
	// Observe adds one sample to the named log-bucketed histogram.
	Observe(name string, value float64)
}

// Metric names recorded by the instrumented layers. Kept here, in one
// place, so the CLIs' progress reporter and the tests can read them back
// from a Snapshot without stringly-typed drift.
const (
	// Solver (internal/solver): per-step and per-solve telemetry.
	MetricSolverSolves          = "solver_solves_total"
	MetricSolverConverged       = "solver_converged_total"
	MetricSolverDegraded        = "solver_degraded_total" // labeled by reason
	MetricSolverNumericErrors   = "solver_numeric_errors_total"
	MetricSolverSteps           = "solver_steps_total"
	MetricSolverStepSeconds     = "solver_step_seconds"
	MetricSolverSolveSeconds    = "solver_solve_seconds"
	MetricSolverSolveIterations = "solver_solve_iterations"
	MetricSolverFinalBins       = "solver_final_bins"
	MetricSolverStartBins       = "solver_start_bins"             // histogram: first rung M of each solve
	MetricSolverCertifiedStarts = "solver_certified_starts_total" // cold solves whose upper process started at a certified exponential
	MetricSolverJumpAttempts    = "solver_jump_attempts_total"    // certified-jump attempts, each also one step
	MetricSolverJumpsAccepted   = "solver_jumps_accepted_total"   // bound processes whose jump was certified
	MetricSolverRefines         = "solver_refines_total"
	MetricSolverBins            = "solver_bins"      // gauge: current M
	MetricSolverGap             = "solver_bound_gap" // gauge: relative gap
	MetricSolverMassDrift       = "solver_mass_drift_abs"

	// Solver scratch pooling and cross-cell warm-start accounting.
	MetricSolverArenaReuse    = "solver_arena_reuse_total"           // scratch sets served from the solver's pool
	MetricSolverArenaAlloc    = "solver_arena_alloc_total"           // scratch sets newly allocated
	MetricSolverWarmSolves    = "solver_warm_solves_total"           // solves seeded from a neighbor's occupancy vectors
	MetricSolverWarmRejected  = "solver_warm_rejected_total"         // incompatible seeds solved cold instead
	MetricSolverWarmIterSaved = "solver_warm_iterations_saved_total" // iterations saved vs. the seeding neighbor
	MetricCoreWarmChains      = "core_warm_chains_total"             // neighbor-ordered warm chains planned
	MetricCoreWarmChainBreaks = "core_warm_chain_breaks_total"       // chains reset by resumed/adopted cells

	// Inverse capacity-planning solves (internal/core Provision).
	MetricCoreProvisions           = "core_provisions_total"            // inverse solves completed
	MetricCoreProvisionInfeasible  = "core_provision_infeasible_total"  // SLOs unreachable in the bracket
	MetricCoreProvisionSolves      = "core_provision_solves_total"      // forward solves spent by inverse solves
	MetricCoreProvisionWarmSolves  = "core_provision_warm_solves_total" // of which warm-seeded
	MetricCoreProvisionSolveBudget = "core_provision_solve_budget_hits_total"

	// Sweeps (internal/core): parallelMap worker-pool telemetry.
	MetricCoreCellsPlanned     = "core_cells_planned_total"
	MetricCoreCellsStarted     = "core_cells_started_total"
	MetricCoreCellsCompleted   = "core_cells_completed_total"
	MetricCoreCellsDegraded    = "core_cells_degraded_total"
	MetricCoreCellSeconds      = "core_cell_seconds"
	MetricCoreSweepSeconds     = "core_sweep_seconds"
	MetricCoreWorkers          = "core_workers" // gauge: pool size
	MetricCoreWorkerBusySecond = "core_worker_busy_seconds_total"

	// Sweep durability (internal/core + internal/journal): resume/retry
	// bookkeeping.
	MetricCoreCellsResumed   = "core_cells_resumed_total" // skipped via journal replay
	MetricCoreCellsRetried   = "core_cell_retries_total"  // extra attempts beyond the first
	MetricCoreJournalBytes   = "core_journal_bytes_total"
	MetricCoreJournalCorrupt = "core_journal_corrupt_lines_total"
	// Corrupt-line classification: trailing = the tolerated crash-window
	// artifact (a line torn mid-append); interior = garbage with intact
	// records after it, i.e. damage no clean crash explains.
	MetricCoreJournalCorruptInterior = "core_journal_corrupt_interior_lines_total"
	MetricCoreJournalCorruptTrailing = "core_journal_corrupt_trailing_lines_total"
	// Journal integrity: records whose CRC32C failed (content damage that
	// still parses) and damaged lines preserved in the .quarantine sidecar.
	MetricCoreJournalCrcMismatch = "core_journal_crc_mismatch_records_total"
	MetricCoreJournalQuarantined = "core_journal_quarantined_records_total"

	// Distributed sweeps (internal/core.LeaseStore): lease-protocol
	// accounting for the shared-journal work queue.
	MetricCoreLeasesClaimed  = "core_leases_claimed_total"  // cells this worker leased
	MetricCoreLeasesRenewed  = "core_leases_renewed_total"  // heartbeat renewals appended
	MetricCoreLeasesReleased = "core_leases_released_total" // leases released without completion
	MetricCoreLeasesStolen   = "core_leases_stolen_total"   // expired leases this worker took over
	MetricCoreLeasesFenced   = "core_leases_fenced_total"   // own leases lost to a newer epoch
	MetricCoreLeasesLost     = "core_leases_lost_total"     // claim races lost to another worker
	MetricCoreCellsAdopted   = "core_cells_adopted_total"   // cells completed by other workers, adopted locally
	MetricCoreLeaseWaitSecs  = "core_lease_wait_seconds"    // time spent waiting on other workers' cells
	MetricCoreLeasesHeld     = "core_leases_held"           // gauge: leases currently held
	MetricCoreLeaseEpoch     = "core_lease_max_epoch"       // gauge: highest fencing epoch observed

	// Traffic-model registry (internal/source realized through sweeps):
	// fit quality of approximating models.
	MetricSourceFitMaxError = "source_fit_max_error" // gauge: sup-norm correlation-fit error

	// Serving layer (internal/serve): per-stage request accounting for the
	// lrdserve HTTP service. Every request increments Requests and then
	// exactly one of Shed (429), CacheHits, Coalesced, or Admitted (a fresh
	// solve); Queued additionally counts admissions that waited for a slot.
	MetricServeRequests       = "serve_requests_total"
	MetricServeAdmitted       = "serve_admitted_total"
	MetricServeQueued         = "serve_queued_total"
	MetricServeShed           = "serve_shed_total"
	MetricServeCoalesced      = "serve_coalesced_total"
	MetricServeCacheHits      = "serve_cache_hits_total"
	MetricServeCacheMisses    = "serve_cache_misses_total"
	MetricServeCacheEvicted   = "serve_cache_evictions_total"
	MetricServeCacheEntries   = "serve_cache_entries" // gauge
	MetricServeCacheWarmed    = "serve_cache_warmed_total"
	MetricServeErrors         = "serve_errors_total" // labeled by kind
	MetricServeInflight       = "serve_inflight"     // gauge
	MetricServeQueueDepth     = "serve_queue_depth"  // gauge
	MetricServeSolveSeconds   = "serve_solve_seconds"
	MetricServeRequestSeconds = "serve_request_seconds"
	// Admission hardening: requests refused by the per-client token bucket,
	// handler panics converted to 500s, and the readiness gauge (1 = ready,
	// 0 = starting or draining) that /readyz reports to load balancers.
	MetricServeRateLimited = "serve_rate_limited_total"
	MetricServePanics      = "serve_panics_total"
	MetricServeReady       = "serve_ready" // gauge

	// Resilient fleet client (internal/resilient): retry, circuit-breaker,
	// and hedging accounting for lrdcall and lrdsweep -fleet.
	MetricResilientRequests        = "resilient_requests_total"
	MetricResilientRetries         = "resilient_retries_total"
	MetricResilientRetryAfter      = "resilient_retry_after_honored_total"
	MetricResilientBreakerOpens    = "resilient_breaker_opens_total"
	MetricResilientBreakerProbes   = "resilient_breaker_probes_total"
	MetricResilientBreakerFastFail = "resilient_breaker_fastfail_total" // attempts refused: every breaker open
	MetricResilientHedges          = "resilient_hedges_total"
	MetricResilientHedgeWins       = "resilient_hedge_wins_total"
	MetricResilientRequestSeconds  = "resilient_request_seconds"
)

// Labeled composes a labeled metric name, e.g.
// Labeled(MetricSolverDegraded, "reason", "deadline exceeded") ==
// "solver_degraded_total{reason=deadline exceeded}". It allocates, so use
// it off the hot path (per-solve, not per-step).
func Labeled(name, label, value string) string {
	return name + "{" + label + "=" + value + "}"
}

// Counter is a monotone float64 accumulator safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta float64) { atomicAddFloat(&c.bits, delta) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-write-wins float64 cell safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the most recently stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: one bucket per power-of-two interval
// (2^(e-1), 2^e] for e in [histMinExp, histMaxExp], plus a low bucket for
// values <= 2^(histMinExp-1) (including zero and negatives) and a high
// bucket for values beyond 2^histMaxExp. 2^-40 ≈ 9.1e-13 and 2^40 ≈ 1.1e12
// comfortably cover nanosecond-scale durations through iteration counts.
const (
	histMinExp = -40
	histMaxExp = 40
	histBucket = histMaxExp - histMinExp + 3 // + low + high + zero-offset
)

// Histogram is a log-bucketed (base-2) histogram with atomic buckets and
// running count/sum/min/max, safe for concurrent use. Observation is
// allocation-free.
type Histogram struct {
	counts [histBucket]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
	once   sync.Once     // initializes min/max sentinels
}

func (h *Histogram) init() {
	h.once.Do(func() {
		h.min.Store(math.Float64bits(math.Inf(1)))
		h.max.Store(math.Float64bits(math.Inf(-1)))
	})
}

// bucketIndex maps a value to its bucket. Index 0 holds v <= 2^(histMinExp-1)
// (and all non-positive v); the last index holds v > 2^histMaxExp.
func bucketIndex(v float64) int {
	if !(v > 0) { // catches 0, negatives, NaN
		return 0
	}
	// frexp: v = frac · 2^exp with frac in [0.5, 1), so v in (2^(exp-1), 2^exp].
	frac, exp := math.Frexp(v)
	if frac == 0.5 { // exact power of two: belongs to the lower interval
		exp--
	}
	switch {
	case exp < histMinExp:
		return 0
	case exp > histMaxExp:
		return histBucket - 1
	default:
		return exp - histMinExp + 1
	}
}

// bucketUpper returns the inclusive upper bound of bucket i ("le").
func bucketUpper(i int) float64 {
	switch {
	case i <= 0:
		return math.Ldexp(1, histMinExp-1)
	case i >= histBucket-1:
		return math.Inf(1)
	default:
		return math.Ldexp(1, histMinExp+i-1)
	}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.init()
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the sample mean (NaN when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	return h.Sum() / float64(n)
}

// atomicAddFloat CAS-accumulates delta into a float64 stored as bits.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Registry is a concurrent collection of named counters, gauges, and
// histograms. The zero value is not usable; call NewRegistry. Registry
// implements Recorder.
type Registry struct {
	counters   sync.Map // string -> *Counter
	gauges     sync.Map // string -> *Gauge
	histograms sync.Map // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, new(Counter))
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, new(Gauge))
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.histograms.LoadOrStore(name, new(Histogram))
	return v.(*Histogram)
}

// Add implements Recorder.
func (r *Registry) Add(name string, delta float64) { r.Counter(name).Add(delta) }

// Set implements Recorder.
func (r *Registry) Set(name string, value float64) { r.Gauge(name).Set(value) }

// Observe implements Recorder.
func (r *Registry) Observe(name string, value float64) { r.Histogram(name).Observe(value) }

// CounterValue returns the named counter's total, or 0 if it was never
// touched (reading does not create the metric).
func (r *Registry) CounterValue(name string) float64 {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter).Value()
	}
	return 0
}

// GaugeValue returns the named gauge's value and whether it exists.
func (r *Registry) GaugeValue(name string) (float64, bool) {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge).Value(), true
	}
	return 0, false
}

// Bucket is one non-empty histogram bucket in a snapshot: Count samples
// with value <= Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram. P50/P90/P99
// are estimated quantiles: exact to within one log₂ bucket, linearly
// interpolated inside the bucket and clamped to the observed [Min, Max].
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts.
// Within the containing bucket the value is linearly interpolated between
// the bucket's bounds; the estimate is clamped to [Min, Max], which makes
// it exact for single-bucket histograms. Returns NaN when empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	target := q * float64(h.Count)
	cum := 0.0
	for _, b := range h.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum >= target {
			hi := b.Le
			if math.IsInf(hi, 1) {
				return h.Max
			}
			lo := hi / 2 // log₂ buckets span (le/2, le]; clamping fixes the low bucket
			v := lo + (hi-lo)*(target-prev)/float64(b.Count)
			return math.Min(math.Max(v, h.Min), h.Max)
		}
	}
	return h.Max
}

// Snapshot is a point-in-time copy of a Registry, ready for JSON encoding.
// Non-finite values (an empty histogram's min/max, a NaN gauge) are
// rendered as strings by MarshalJSON since JSON has no Inf/NaN.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. It is safe to call
// concurrently with recording; each metric is read atomically (the
// snapshot as a whole is not a consistent cut, which is fine for
// monitoring output).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.histograms.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = snapshotHistogram(v.(*Histogram))
		return true
	})
	return s
}

// snapshotHistogram copies one histogram's atomics into an exported
// snapshot, including the estimated tail quantiles. Count is the sum of
// the bucket loads copied, not a separate load of the running count, so a
// snapshot taken during writes is still self-consistent: no cumulative
// bucket can exceed Count.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Sum: h.Sum(),
		Min: math.Float64frombits(h.min.Load()),
		Max: math.Float64frombits(h.max.Load()),
	}
	for i := 0; i < histBucket; i++ {
		if c := h.counts[i].Load(); c > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{Le: bucketUpper(i), Count: c})
			hs.Count += c
		}
	}
	if hs.Count == 0 {
		hs.Min, hs.Max = 0, 0
	} else {
		hs.Mean = hs.Sum / float64(hs.Count)
		hs.P50 = hs.Quantile(0.50)
		hs.P90 = hs.Quantile(0.90)
		hs.P99 = hs.Quantile(0.99)
	}
	return hs
}

// HistogramSnapshotFor snapshots the single named histogram and reports
// whether it exists (reading does not create the metric).
func (r *Registry) HistogramSnapshotFor(name string) (HistogramSnapshot, bool) {
	if v, ok := r.histograms.Load(name); ok {
		return snapshotHistogram(v.(*Histogram)), true
	}
	return HistogramSnapshot{}, false
}

// WriteJSON writes the snapshot as indented JSON. Non-finite floats are
// replaced with large sentinels JSON can carry (see sanitizeFloat).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.sanitized())
}

// sanitized returns a copy with every non-finite float replaced, since
// encoding/json rejects NaN and ±Inf.
func (s Snapshot) sanitized() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]float64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = sanitizeFloat(v)
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = sanitizeFloat(v)
	}
	for k, h := range s.Histograms {
		h.Sum = sanitizeFloat(h.Sum)
		h.Mean = sanitizeFloat(h.Mean)
		h.Min = sanitizeFloat(h.Min)
		h.Max = sanitizeFloat(h.Max)
		h.P50 = sanitizeFloat(h.P50)
		h.P90 = sanitizeFloat(h.P90)
		h.P99 = sanitizeFloat(h.P99)
		buckets := make([]Bucket, len(h.Buckets))
		for i, b := range h.Buckets {
			buckets[i] = Bucket{Le: sanitizeFloat(b.Le), Count: b.Count}
		}
		h.Buckets = buckets
		out.Histograms[k] = h
	}
	return out
}

// sanitizeFloat maps values JSON cannot represent onto extreme finite ones.
func sanitizeFloat(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	default:
		return v
	}
}
