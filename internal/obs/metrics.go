// Package obs is the engine's dependency-free observability layer: a
// goroutine-safe registry of counters, gauges and latency histograms, plus
// per-query trace spans (trace.go). The engine threads these through the
// whole query path — parse, extract, rewrite, materialize, execute — so
// production traffic and benchmarks measure the same counters a perf PR
// must move. Everything here is plain stdlib: no exporter dependencies,
// just atomic integers and JSON snapshots.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. in-flight queries).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucketing is HDR-style: exponential power-of-two ranges, each
// split into 4 linear sub-buckets by the two bits after the leading one, so
// a quantile's bucket upper bound overestimates the true value by at most
// 25% (the pure power-of-two scheme was off by up to 2×). Values 0–3 get
// exact buckets; value v ≥ 4 with most-significant bit m (v ∈ [2^m, 2^(m+1)))
// lands in sub-bucket (v >> (m-2)) & 3 of range m. m runs 2…63, hence
// 4 + 62*4 buckets cover the full non-negative int64 range.
const histBuckets = 4 + 62*4

// histBucketIndex maps an observation to its bucket.
func histBucketIndex(v int64) int {
	if v < 4 {
		return int(v)
	}
	m := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> uint(m-2)) & 3)
	return 4 + (m-2)*4 + sub
}

// histBucketUpper is the largest value mapped to bucket i (the quantile
// upper bound), saturating at MaxInt64 for the top range.
func histBucketUpper(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	m := uint((i-4)/4 + 2)
	sub := uint64((i-4)%4) + 1
	u := uint64(1)<<m + sub<<(m-2) - 1
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// Histogram records int64 observations (by convention nanoseconds for
// latencies) into exponential buckets with 4 linear sub-buckets per power
// of two (see histBucketIndex). All operations are atomic; Observe is
// wait-free except for the min/max CAS loops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // initialized to MaxInt64 by the registry
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value; negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	atomicMin(&h.min, v)
	atomicMax(&h.max, v)
	h.buckets[histBucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Since records the time elapsed from start; handy as a one-line defer.
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1): the top of
// the sub-bucket the quantile falls into, at most 25% above the true value
// (and clamped to the observed max). 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			hi := histBucketUpper(i)
			if m := h.max.Load(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.max.Load()
}

// Stats summarizes the histogram into its exported snapshot form (count,
// sum, min/max, mean, quantile upper bounds and the non-empty buckets) —
// shared by the registry snapshot and the workload aggregate table.
func (h *Histogram) Stats() HistogramStats {
	st := HistogramStats{
		Count: h.Count(),
		SumNS: h.Sum(),
		P50NS: h.Quantile(0.50),
		P95NS: h.Quantile(0.95),
		P99NS: h.Quantile(0.99),
	}
	if st.Count > 0 {
		st.MinNS = h.min.Load()
		st.MaxNS = h.max.Load()
		st.Mean = float64(st.SumNS) / float64(st.Count)
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				st.Buckets = append(st.Buckets, HistBucket{UpperNS: histBucketUpper(i), Count: n})
			}
		}
	}
	return st
}

// Merge folds src's observations into h (bucket-wise, so quantiles stay
// within the usual 25% bound). Used when a bounded aggregate table retires
// an entry into its overflow bucket. Not atomic across buckets: callers
// serialize merges externally.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src.count.Load() == 0 {
		return
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	atomicMin(&h.min, src.min.Load())
	atomicMax(&h.max, src.max.Load())
	for i := 0; i < histBuckets; i++ {
		if n := src.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Registry is a goroutine-safe name → metric table. Metrics are created on
// first use and live for the registry's lifetime; the accessors are cheap
// enough for per-query paths (one mutex-guarded map lookup).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// collectors run at the start of every Snapshot, keyed by owner so that
	// re-registering replaces instead of stacking.
	collectors map[string]func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used when a component is not
// given its own.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// HistBucket is one non-empty histogram bucket: the largest value the
// bucket admits and how many observations landed in it. Counts are
// per-bucket, not cumulative — the Prometheus writer accumulates them into
// the exposition's `le` series.
type HistBucket struct {
	UpperNS int64
	Count   int64
}

// HistogramStats is the exported summary of one histogram. Buckets is
// excluded from JSON so the bench export format stays stable; it feeds the
// Prometheus exposition only.
type HistogramStats struct {
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	MinNS   int64        `json:"min_ns"`
	MaxNS   int64        `json:"max_ns"`
	Mean    float64      `json:"mean_ns"`
	P50NS   int64        `json:"p50_ns"`
	P95NS   int64        `json:"p95_ns"`
	P99NS   int64        `json:"p99_ns"`
	Buckets []HistBucket `json:"-"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// marshalable to JSON (the bench export format; see DESIGN.md).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms"`
	// Labeled carries labeled families (e.g. the workload observatory's
	// per-fingerprint/per-view series) into the Prometheus exposition only;
	// it is excluded from JSON so the bench export format stays stable.
	Labeled []LabeledFamily `json:"-"`
}

// OnSnapshot registers fn to run at the start of every Snapshot, before the
// values are copied: the hook for gauges that mirror state kept elsewhere
// (e.g. the engine's plan-cache size) and are cheaper to recompute when read
// than to maintain on the hot path. Every reader of the registry — /metrics,
// uload -metrics, bench JSON, a bare Snapshot() — then sees them current. A
// later registration under the same name replaces the earlier one. fn runs
// without the registry lock held and may use the registry.
func (r *Registry) OnSnapshot(name string, fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.collectors == nil {
		r.collectors = map[string]func(){}
	}
	r.collectors[name] = fn
}

// Snapshot copies the registry's current values, after running the
// OnSnapshot collectors.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	collectors := make([]func(), 0, len(r.collectors))
	for _, fn := range r.collectors {
		collectors = append(collectors, fn)
	}
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramStats, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stats()
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// String renders the snapshot as sorted "name value" lines for terminals.
func (s *Snapshot) String() string {
	var sb strings.Builder
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-32s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-32s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&sb, "%-32s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
			n, h.Count, time.Duration(int64(h.Mean)), time.Duration(h.P50NS),
			time.Duration(h.P95NS), time.Duration(h.P99NS), time.Duration(h.MaxNS))
	}
	return sb.String()
}
