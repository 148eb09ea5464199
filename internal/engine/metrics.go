package engine

import (
	"xamdb/internal/obs"
)

// Engine metric names, centralized so monitoring surfaces and tests refer
// to one set of constants instead of scattered string literals. The
// Prometheus exporter (obs.Snapshot.WriteProm) sanitizes the dots to
// underscores; see DESIGN.md "Observability" for the semantics of each.
const (
	MetricQueries            = "engine.queries"
	MetricQueryErrors        = "engine.query_errors"
	MetricQueriesDegraded    = "engine.queries_degraded"
	MetricDegradations       = "engine.degradations"
	MetricPlansTried         = "engine.plans_tried"
	MetricBaseScans          = "engine.base_scans"
	MetricPredAbsorbed       = "engine.pred_absorbed"
	MetricPredResidual       = "engine.pred_residual"
	MetricPlanCacheHits      = "engine.plan_cache_hits"
	MetricPlanCacheMisses    = "engine.plan_cache_misses"
	MetricPlanCacheEvictions = "engine.plan_cache_evictions"
	MetricViewsMaterialized  = "engine.views_materialized"
	MetricInflight           = "engine.inflight"
	MetricQueryNS            = "engine.query_ns"
	MetricRewriteNS          = "engine.rewrite_ns"
	MetricMaterializeNS      = "engine.materialize_ns"
	MetricExecuteNS          = "engine.execute_ns"
	MetricFallbackDepth      = "engine.fallback_depth"
	// MetricBatches counts batches drained through the vectorized execution
	// path; MetricBatchFallbacks counts plan nodes that had no batch form
	// and fell back to the row engine behind a Rebatch adapter.
	MetricBatches        = "engine.batches"
	MetricBatchFallbacks = "engine.batch_fallbacks"

	// State gauges, recomputed from the planning snapshots by
	// syncStateGauges on every Registry.Snapshot (an OnSnapshot collector),
	// not maintained on the query path.
	MetricPlanCacheSize      = "engine.plan_cache_size"
	MetricViewExtentsBuilt   = "engine.view_extents_built"
	MetricViewExtentsUnbuilt = "engine.view_extents_unbuilt"
	MetricViewExtentsFailed  = "engine.view_extents_failed"
)

// MetricViewMaterializedPrefix prefixes the per-view materialization
// counters: MetricViewMaterializedPrefix + viewName counts cold extent
// builds of that view, so cold-start spikes are attributable.
const MetricViewMaterializedPrefix = "engine.view_materialized."

// engineMetrics caches the engine's hot metric handles so the per-query
// path does one atomic load instead of a dozen mutex-guarded registry
// lookups (which serialize under concurrent load).
type engineMetrics struct {
	reg               *obs.Registry
	queries           *obs.Counter
	queryErrors       *obs.Counter
	queriesDegraded   *obs.Counter
	degradations      *obs.Counter
	plansTried        *obs.Counter
	baseScans         *obs.Counter
	predAbsorbed      *obs.Counter
	predResidual      *obs.Counter
	cacheHits         *obs.Counter
	cacheMisses       *obs.Counter
	cacheEvictions    *obs.Counter
	viewsMaterialized *obs.Counter
	inflight          *obs.Gauge
	queryNS           *obs.Histogram
	rewriteNS         *obs.Histogram
	materializeNS     *obs.Histogram
	executeNS         *obs.Histogram
	fallbackDepth     *obs.Histogram
	batches           *obs.Counter
	batchFallbacks    *obs.Counter

	planCacheSize  *obs.Gauge
	extentsBuilt   *obs.Gauge
	extentsUnbuilt *obs.Gauge
	extentsFailed  *obs.Gauge
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	return &engineMetrics{
		reg:               reg,
		queries:           reg.Counter(MetricQueries),
		queryErrors:       reg.Counter(MetricQueryErrors),
		queriesDegraded:   reg.Counter(MetricQueriesDegraded),
		degradations:      reg.Counter(MetricDegradations),
		plansTried:        reg.Counter(MetricPlansTried),
		baseScans:         reg.Counter(MetricBaseScans),
		predAbsorbed:      reg.Counter(MetricPredAbsorbed),
		predResidual:      reg.Counter(MetricPredResidual),
		cacheHits:         reg.Counter(MetricPlanCacheHits),
		cacheMisses:       reg.Counter(MetricPlanCacheMisses),
		cacheEvictions:    reg.Counter(MetricPlanCacheEvictions),
		viewsMaterialized: reg.Counter(MetricViewsMaterialized),
		inflight:          reg.Gauge(MetricInflight),
		queryNS:           reg.Histogram(MetricQueryNS),
		rewriteNS:         reg.Histogram(MetricRewriteNS),
		materializeNS:     reg.Histogram(MetricMaterializeNS),
		executeNS:         reg.Histogram(MetricExecuteNS),
		fallbackDepth:     reg.Histogram(MetricFallbackDepth),
		batches:           reg.Counter(MetricBatches),
		batchFallbacks:    reg.Counter(MetricBatchFallbacks),
		planCacheSize:     reg.Gauge(MetricPlanCacheSize),
		extentsBuilt:      reg.Gauge(MetricViewExtentsBuilt),
		extentsUnbuilt:    reg.Gauge(MetricViewExtentsUnbuilt),
		extentsFailed:     reg.Gauge(MetricViewExtentsFailed),
	}
}

// Registry returns the engine's metrics registry (the process-wide default
// when Metrics is nil) — the handle monitoring surfaces snapshot and
// export.
func (e *Engine) Registry() *obs.Registry { return e.metrics() }

// syncStateGauges recomputes the externally visible planning-state gauges
// — plan-cache entries and per-view extent states (built / unbuilt /
// failed) summed over every document's current snapshot. The engine
// registers it as its registry's OnSnapshot collector, so it runs whenever
// the metrics are read — /metrics, uload -metrics, bench JSON, a bare
// Metrics.Snapshot() — rather than on the query path: lazy materialization
// stays observable without taxing queries, and no reader sees stale zeros.
func (e *Engine) syncStateGauges() {
	m := e.m()
	var cacheEntries, built, unbuilt, failed int64
	e.mu.RLock()
	docs := make([]*docState, 0, len(e.docs))
	for _, st := range e.docs {
		docs = append(docs, st)
	}
	e.mu.RUnlock()
	for _, st := range docs {
		pe := st.plan()
		if pe.cache != nil {
			cacheEntries += int64(pe.cache.len())
		}
		for _, x := range pe.extents {
			switch x.state.Load() {
			case xsBuilt:
				built++
			case xsFailed:
				failed++
			default:
				unbuilt++
			}
		}
	}
	m.planCacheSize.Set(cacheEntries)
	m.extentsBuilt.Set(built)
	m.extentsUnbuilt.Set(unbuilt)
	m.extentsFailed.Set(failed)
}
