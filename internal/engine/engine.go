// Package engine assembles the full ULoad-style prototype (§1.2, §5.1): a
// catalog of documents with their path summaries, a set of XAM-described
// storage structures / materialized views per document, and a query
// processor that extracts patterns from XQuery (Chapter 3), rewrites each
// pattern over the registered XAMs under summary constraints (Chapters 4–5),
// and executes the chosen plans — achieving physical data independence:
// changing the storage means changing the registered XAM set, never the
// engine.
//
// The engine is goroutine-safe: QueryContext / ExplainContext / Analyze may
// run concurrently with each other and with view registration. Planning
// state is copy-on-write: each query atomically loads an immutable planEnv
// snapshot (view set, rewriter, plan cache, extent table), so read-only
// workloads plan lock-free; only RegisterView / RegisterStore / DropView
// take the per-document write lock and publish a fresh snapshot with a
// bumped epoch. Compiled rewritings are cached per snapshot (LRU, keyed by
// the pattern's canonical print), and view extents materialize lazily, one
// view at a time, only when a chosen plan references them.
//
// The configuration fields (FallbackToBase, UsePhysical, QueryTimeout,
// Opts, Options, Metrics) must be set before the engine starts serving
// concurrent traffic. Every query is measured through the internal/obs
// observability layer: engine-level counters and latency histograms in
// Metrics, and a per-query trace span tree attached to the Report.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xamdb/internal/algebra"
	"xamdb/internal/faultinject"
	"xamdb/internal/obs"
	"xamdb/internal/physical"
	"xamdb/internal/rewrite"
	"xamdb/internal/storage"
	"xamdb/internal/summary"
	"xamdb/internal/xam"
	"xamdb/internal/xmltree"
	"xamdb/internal/xquery"
)

// docState groups what the engine knows about one document. doc and summary
// are immutable after registration; the planning state (views, rewriter,
// plan cache, extents) lives in an immutable planEnv snapshot reached
// through an atomic pointer. mu serializes writers (view registration and
// removal); readers never take it.
type docState struct {
	doc     *xmltree.Document
	summary *summary.Summary

	mu sync.Mutex // serializes snapshot publication, never held by queries
	pe atomic.Pointer[planEnv]
}

// plan returns the current planning snapshot (lock-free).
func (st *docState) plan() *planEnv { return st.pe.Load() }

// planEnv is one immutable planning snapshot of a document: the registered
// view set, the store-supplied extents, the lazily-built rewriter, the
// rewriting cache and the per-view extent table. Registration publishes a
// fresh snapshot with epoch+1; in-flight queries keep using the snapshot
// they loaded, so a query never observes a half-updated view catalog and a
// cached rewriting can never outlive its view set (the cache dies with the
// snapshot — the (pattern, epoch) cache key of DESIGN.md is implicit).
type planEnv struct {
	epoch     uint64
	summary   *summary.Summary
	views     []*rewrite.View
	viewNames map[string]bool
	// baseEnv holds extents supplied by RegisterStore (already materialized
	// by the storage layer). Immutable.
	baseEnv rewrite.Env
	// extents holds one lazily-materialized extent slot per view that needs
	// evaluation over the document (views not covered by baseEnv and not
	// R-marked index patterns). The map itself is immutable; each slot
	// carries its own lock. Slots whose view (name, pattern) survived a
	// re-registration are carried over, so bumping the epoch does not throw
	// away already-built extents.
	extents map[string]*viewExtent
	// cache memoizes compiled rewritings per canonical pattern print; nil
	// when the plan cache is disabled.
	cache *planCache

	rwOnce   sync.Once
	rewriter *rewrite.Rewriter
}

// planner returns the snapshot's rewriter, building it on first use.
// Building is pure planning state — no document access, no extent
// materialization — so Explain stays read-only and cheap.
func (pe *planEnv) planner(opts rewrite.Options) *rewrite.Rewriter {
	pe.rwOnce.Do(func() {
		pe.rewriter = rewrite.NewRewriter(pe.summary, pe.views, opts)
	})
	return pe.rewriter
}

// Extent materialization states, readable lock-free by monitoring surfaces
// (syncStateGauges, Catalog) while a build holds the slot mutex.
const (
	xsUnbuilt int32 = iota
	xsBuilt
	xsFailed // last materialization attempt failed; retried on next use
)

// viewExtent is the lazily-built extent of one view. The state
// distinguishes "not yet materialized" (retry on next use) from a
// materialized slot, so a failed materialization degrades only the queries
// that needed the view and is retried the next time a plan references it;
// a failed slot additionally reports xsFailed so the gauges and /debug/
// catalog can attribute degradations to the culprit view.
type viewExtent struct {
	patternKey string // identity for carry-over across snapshots

	mu    sync.Mutex
	rel   *algebra.Relation // valid only in state xsBuilt; guarded by mu
	state atomic.Int32      // written under mu, read lock-free by monitors
}

// get returns the extent, materializing it on first use; buildNS is the
// build's duration when this call did the work (0 on a warm hit), so the
// caller can attribute cold-build cost to the query that paid it. A nil
// relation in the built state means the slot was poisoned (tests) or the
// view has no standalone extent; the caller omits it from the execution
// env. Cold builds open a trace span named after the view, so cold-start
// spikes are attributable in the span tree and in the per-view counters.
func (x *viewExtent) get(pe *planEnv, doc *xmltree.Document, name string, opts rewrite.Options, m *engineMetrics, tr *obs.Trace, parent *obs.Span) (*algebra.Relation, int64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.state.Load() == xsBuilt {
		return x.rel, 0, nil
	}
	if tr != nil {
		span := tr.StartSpan(parent, "materialize("+name+")")
		defer span.End()
	}
	start := time.Now()
	rel, err := pe.planner(opts).MaterializeView(doc, name)
	if err != nil {
		x.state.Store(xsFailed)
		return nil, int64(time.Since(start)), err
	}
	buildNS := int64(time.Since(start))
	m.materializeNS.Observe(buildNS)
	m.viewsMaterialized.Inc()
	m.reg.Counter(MetricViewMaterializedPrefix + name).Inc()
	x.rel = rel
	x.state.Store(xsBuilt)
	return rel, buildNS, nil
}

// envFor assembles the execution environment for one plan: store-supplied
// extents straight from the snapshot, view extents materialized lazily. It
// returns the name of the view whose materialization failed, if any, so the
// degradation names the culprit. Cold builds are attributed on the report
// (the query that paid for them), even when the plan later loses — work
// done is work done.
// Each extent placed in the env is charged against the query's budget (when
// one rides the context), so a plan touching more decoded bytes than its
// quota allows is killed before execution pulls a single tuple.
func (pe *planEnv) envFor(doc *xmltree.Document, plan rewrite.Plan, opts rewrite.Options, budget *physical.Budget, report *Report, m *engineMetrics, tr *obs.Trace, pspan *obs.Span) (rewrite.Env, string, error) {
	refs := rewrite.ViewRefs(plan)
	env := make(rewrite.Env, len(refs))
	for _, name := range refs {
		rel, ok := pe.baseEnv[name]
		if !ok {
			x, xok := pe.extents[name]
			if !xok {
				continue // index view or unknown: the plan degrades at execution
			}
			var err error
			var buildNS int64
			rel, buildNS, err = x.get(pe, doc, name, opts, m, tr, pspan)
			if buildNS > 0 && report != nil {
				report.viewUse(name).MaterializeNS += buildNS
			}
			if err != nil {
				return nil, name, err
			}
			if rel == nil {
				continue
			}
		}
		if err := budget.ChargeExtentBytes(rel.EstimatedBytes()); err != nil {
			return nil, name, err
		}
		env[name] = rel
	}
	return env, "", nil
}

// Options configures the engine's warm-path planning machinery.
type Options struct {
	// PlanCacheSize bounds the per-document LRU of compiled rewritings
	// (entries, not bytes); 0 means DefaultPlanCacheSize.
	PlanCacheSize int
	// DisablePlanCache bypasses the rewriting cache entirely — every query
	// redoes the containment search (degraded/debug runs; uload -nocache).
	DisablePlanCache bool
}

// DefaultPlanCacheSize is the per-document rewriting-cache bound applied
// when Options.PlanCacheSize is zero.
const DefaultPlanCacheSize = 256

// Engine is the query processor.
type Engine struct {
	mu   sync.RWMutex
	docs map[string]*docState

	// FallbackToBase lets queries run by direct evaluation when no
	// rewriting exists (equivalent to registering the trivial node store).
	FallbackToBase bool
	// UsePhysical executes rewritten plans through the §1.2.3 physical
	// operators (StackTree joins over sorted inputs) instead of the
	// materialized logical evaluator.
	UsePhysical bool
	// UseBatch routes physical execution through the vectorized batch
	// operators (column-vector batches with row-engine fallback adapters);
	// it only takes effect together with UsePhysical. New enables it; uload
	// -nobatch disables it for row-vs-batch ablations.
	UseBatch bool
	// QueryTimeout bounds each Query/QueryContext call; 0 means no limit.
	// It composes with any deadline already on the caller's context (the
	// earlier one wins).
	QueryTimeout time.Duration
	Opts         rewrite.Options
	// Options tunes the planning warm path (plan cache size / bypass).
	Options Options
	// Metrics receives the engine's counters and latency histograms (see
	// DESIGN.md "Observability" for the metric names). New wires a fresh
	// registry; nil falls back to the process-wide obs.Default().
	Metrics *obs.Registry
	// QueryLog receives one structured record per query — successful,
	// degraded or failed. New installs a DefaultQueryLogSize-entry log with
	// DefaultSlowQueryThreshold; nil disables logging. Queries crossing the
	// slow threshold retain their full trace (and, once their fingerprint
	// recurs, EXPLAIN ANALYZE operator stats) in the record.
	QueryLog *obs.QueryLog
	// Workload is the fingerprint-aggregated workload observatory: every
	// completed query folds its record into the bounded aggregate table and
	// the per-view attribution index, feeding /debug/workload and the view
	// advisor (/debug/advisor). New installs a DefaultWorkloadTopK-entry
	// table; nil disables aggregation.
	Workload *obs.WorkloadStats

	ms atomic.Pointer[engineMetrics]

	// slowFPs collects the fingerprints of queries that crossed the slow
	// threshold; their next runs execute instrumented so the query log can
	// retain operator stats. Bounded by maxSlowFingerprints.
	slowFPs     sync.Map // fingerprint → struct{}
	slowFPCount atomic.Int64
}

// DefaultQueryLogSize is the query-log ring capacity New installs.
const DefaultQueryLogSize = 512

// DefaultSlowQueryThreshold is the slow-query threshold New installs.
const DefaultSlowQueryThreshold = 100 * time.Millisecond

// maxSlowFingerprints bounds the auto-instrument set so an adversarial
// workload of unique slow queries cannot grow it without limit.
const maxSlowFingerprints = 128

// DefaultWorkloadTopK is the workload observatory's exact-entry bound New
// installs (top-K fingerprints; the rest aggregate in the overflow bucket).
const DefaultWorkloadTopK = 128

// New creates an empty engine that falls back to base evaluation. The
// optimizer stops after a handful of plans per pattern; raise Opts.MaxPlans
// to explore exhaustively.
func New() *Engine {
	e := &Engine{
		docs:           map[string]*docState{},
		FallbackToBase: true,
		UseBatch:       true,
		Opts:           rewrite.Options{MaxPlans: 3},
		Metrics:        obs.NewRegistry(),
		QueryLog:       obs.NewQueryLog(DefaultQueryLogSize, DefaultSlowQueryThreshold),
		Workload:       obs.NewWorkloadStats(DefaultWorkloadTopK),
	}
	e.m() // registers the state-gauge collector before the first snapshot
	return e
}

func (e *Engine) metrics() *obs.Registry {
	if e.Metrics != nil {
		return e.Metrics
	}
	return obs.Default()
}

// m returns the cached metric handles, rebuilding them if the registry was
// swapped (a pre-serving configuration step).
func (e *Engine) m() *engineMetrics {
	reg := e.metrics()
	if ms := e.ms.Load(); ms != nil && ms.reg == reg {
		return ms
	}
	ms := newEngineMetrics(reg)
	// The state gauges mirror planning snapshots; recompute them whenever
	// anyone reads the registry, so no reader depends on a scrape handler
	// having synced them first.
	reg.OnSnapshot("engine.state_gauges", e.syncStateGauges)
	// Racing rebuilds converge: every store for the same registry carries
	// equivalent handles, and registry swaps are a pre-serving config step.
	//xamlint:allow snapshot(idempotent rebuild; racing stores publish equivalent handle sets for the same registry)
	e.ms.Store(ms)
	return ms
}

// newPlanCacheFor sizes a fresh rewriting cache from the engine options;
// nil when caching is disabled.
func (e *Engine) newPlanCacheFor() *planCache {
	if e.Options.DisablePlanCache {
		return nil
	}
	size := e.Options.PlanCacheSize
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	return newPlanCache(size)
}

// LoadDocument parses and registers a document, building its summary.
func (e *Engine) LoadDocument(name, content string) error {
	doc, err := xmltree.Parse(name, content)
	if err != nil {
		return err
	}
	e.AddDocument(doc)
	return nil
}

// AddDocument registers an already-parsed document.
func (e *Engine) AddDocument(doc *xmltree.Document) {
	st := &docState{doc: doc, summary: summary.Build(doc)}
	st.pe.Store(&planEnv{
		summary:   st.summary,
		viewNames: map[string]bool{},
		baseEnv:   rewrite.Env{},
		extents:   map[string]*viewExtent{},
		cache:     e.newPlanCacheFor(),
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.docs[doc.Name] = st
}

// Document returns a registered document, or nil.
func (e *Engine) Document(name string) *xmltree.Document {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if st, ok := e.docs[name]; ok {
		return st.doc
	}
	return nil
}

// Summary returns a document's path summary, or nil.
func (e *Engine) Summary(name string) *summary.Summary {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if st, ok := e.docs[name]; ok {
		return st.summary
	}
	return nil
}

func (e *Engine) state(doc string) (*docState, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st, ok := e.docs[doc]
	if !ok {
		return nil, fmt.Errorf("engine: unknown document %q", doc)
	}
	return st, nil
}

// publishLocked builds and installs the next planning snapshot from the
// given view catalog and store env, carrying over already-built extents for
// views whose (name, pattern) identity is unchanged. Callers hold st.mu.
func (st *docState) publishLocked(e *Engine, views []*rewrite.View, names map[string]bool, baseEnv rewrite.Env) {
	old := st.pe.Load()
	next := &planEnv{
		epoch:     old.epoch + 1,
		summary:   st.summary,
		views:     views,
		viewNames: names,
		baseEnv:   baseEnv,
		extents:   make(map[string]*viewExtent, len(views)),
		cache:     e.newPlanCacheFor(),
	}
	for _, v := range views {
		if _, fromStore := baseEnv[v.Name]; fromStore {
			continue // extent supplied by the storage layer
		}
		if v.Pattern.HasRequired() {
			continue // index view: no standalone extent
		}
		key := v.Pattern.String()
		if prev, ok := old.extents[v.Name]; ok && prev.patternKey == key {
			next.extents[v.Name] = prev
			continue
		}
		next.extents[v.Name] = &viewExtent{patternKey: key}
	}
	st.pe.Store(next)
}

// RegisterView makes a XAM available to the optimizer for the document; its
// extent materializes lazily the first time a chosen plan references it.
// Changing the storage = changing the registered XAM set. A name already
// registered for the document is rejected: silently shadowing an extent in
// the environment would make the optimizer execute one view's plan over
// another view's tuples.
func (e *Engine) RegisterView(doc, name, pat string) error {
	st, err := e.state(doc)
	if err != nil {
		return err
	}
	p, err := xam.Parse(pat)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.pe.Load()
	if cur.viewNames[name] {
		return fmt.Errorf("engine: duplicate view %q for document %q", name, doc)
	}
	views := append(append([]*rewrite.View{}, cur.views...), &rewrite.View{Name: name, Pattern: p})
	names := make(map[string]bool, len(cur.viewNames)+1)
	for n := range cur.viewNames {
		names[n] = true
	}
	names[name] = true
	st.publishLocked(e, views, names, cur.baseEnv)
	return nil
}

// RegisterStore adds every module of a storage scheme as a view, with the
// store's pre-materialized extents. Module names must not collide with
// already-registered views or modules of the same document; on collision
// nothing is registered.
func (e *Engine) RegisterStore(doc string, store *storage.Store) error {
	st, err := e.state(doc)
	if err != nil {
		return err
	}
	storeViews := store.Views()
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.pe.Load()
	for _, v := range storeViews {
		if cur.viewNames[v.Name] {
			return fmt.Errorf("engine: duplicate view %q (module of store %q) for document %q",
				v.Name, store.Name, doc)
		}
	}
	views := append(append([]*rewrite.View{}, cur.views...), storeViews...)
	names := make(map[string]bool, len(cur.viewNames)+len(storeViews))
	for n := range cur.viewNames {
		names[n] = true
	}
	baseEnv := make(rewrite.Env, len(cur.baseEnv)+len(storeViews))
	for n, rel := range cur.baseEnv {
		baseEnv[n] = rel
	}
	for _, v := range storeViews {
		names[v.Name] = true
	}
	for name, rel := range store.Env() {
		baseEnv[name] = rel
	}
	st.publishLocked(e, views, names, baseEnv)
	return nil
}

// DropView removes a view (or store module) from the document's catalog and
// publishes a fresh planning snapshot, so no later query can plan over it —
// cached rewritings die with the superseded snapshot.
func (e *Engine) DropView(doc, name string) error {
	st, err := e.state(doc)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.pe.Load()
	if !cur.viewNames[name] {
		return fmt.Errorf("engine: unknown view %q for document %q", name, doc)
	}
	views := make([]*rewrite.View, 0, len(cur.views)-1)
	for _, v := range cur.views {
		if v.Name != name {
			views = append(views, v)
		}
	}
	names := make(map[string]bool, len(cur.viewNames)-1)
	for n := range cur.viewNames {
		if n != name {
			names[n] = true
		}
	}
	baseEnv := cur.baseEnv
	if _, ok := baseEnv[name]; ok {
		baseEnv = make(rewrite.Env, len(cur.baseEnv)-1)
		for n, rel := range cur.baseEnv {
			if n != name {
				baseEnv[n] = rel
			}
		}
	}
	st.publishLocked(e, views, names, baseEnv)
	return nil
}

// SiteRewrite is the fault-injection site consulted before the rewriting
// search; arming it models planner failures (including quota kills that
// must abort the query rather than degrade it).
const SiteRewrite = "engine.rewrite"

// compileRewritings returns the pattern's rewritings over the snapshot's
// views, consulting the plan cache first: on a hit the containment search
// is skipped entirely. tr may be nil (Explain records no trace); cache
// outcomes are tallied both in the engine counters and on the report, so
// the query log can record per-query hit/miss figures.
func (e *Engine) compileRewritings(pe *planEnv, pat *xam.Pattern, report *Report, tr *obs.Trace, pspan *obs.Span) ([]*rewrite.Rewriting, error) {
	if err := faultinject.Check(SiteRewrite); err != nil {
		return nil, err
	}
	m := e.m()
	cache := pe.cache
	if cache != nil && e.Options.DisablePlanCache {
		cache = nil
	}
	var key string
	if cache != nil {
		var cspan *obs.Span
		if tr != nil {
			cspan = tr.StartSpan(pspan, "cache")
		}
		key = pat.CacheKey()
		plans, hit := cache.get(key)
		if cspan != nil {
			cspan.End()
		}
		if hit {
			m.cacheHits.Inc()
			report.PlanCacheHits++
			return plans, nil
		}
		m.cacheMisses.Inc()
		report.PlanCacheMisses++
	}
	var rspan *obs.Span
	if tr != nil {
		rspan = tr.StartSpan(pspan, "rewrite")
	}
	start := time.Now()
	plans, err := pe.planner(e.Opts).Rewrite(pat)
	m.rewriteNS.Since(start)
	if rspan != nil {
		rspan.End()
	}
	if err != nil {
		return nil, err
	}
	if cache != nil {
		if cache.put(key, plans) {
			m.cacheEvictions.Inc()
		}
	}
	return plans, nil
}

// Degradation records one step down the fallback cascade: a plan that
// failed at execution time and what the engine did about it.
type Degradation struct {
	Pattern int    // index into Report.Patterns
	Plan    string // the plan that failed
	Err     string // why it failed
}

// Report describes how a query was answered.
type Report struct {
	Patterns []string // extracted query patterns
	Plans    []string // chosen plan per pattern ("base scan" for fallback)
	// Degradations lists every plan that failed at execution time and was
	// replaced by the next-best rewriting or the base scan. Empty for a
	// cleanly-answered query.
	Degradations []Degradation
	// Trace is the query's span tree (parse → extract → per-pattern
	// cache/rewrite/materialize(view)/execute), attached by QueryContext.
	Trace *obs.Trace
	// Ops holds one EXPLAIN ANALYZE operator tree per pattern, populated
	// by Analyze/AnalyzeContext — and by QueryContext for queries whose
	// fingerprint previously crossed the slow-query threshold (slow-query
	// capture instruments recurrences so the log retains operator stats).
	Ops []*physical.OpStats
	// PlanCacheHits / PlanCacheMisses count this query's rewriting-cache
	// outcomes across its patterns.
	PlanCacheHits   int
	PlanCacheMisses int
	// BaseScans counts patterns this query answered by direct evaluation
	// (the fallback cascade's floor) — the signal the view advisor mines
	// for materialization candidates.
	BaseScans int
	// PredAbsorbed marks that at least one decorated pattern was answered
	// from views (its value predicates absorbed into the view scans);
	// ResidualSelections counts the σ_φ left above the winning plans.
	PredAbsorbed       bool
	ResidualSelections int
	// Batches / BatchFallbacks count this query's vectorized batches and
	// row-engine fallback adaptations.
	Batches        int64
	BatchFallbacks int64

	// viewUses accumulates per-view attribution (references by winning
	// plans, extent bytes placed in the env, materialize cost this query
	// paid) for the workload observatory. Per-query, single-goroutine.
	viewUses map[string]*obs.ViewUse
}

// viewUse returns the report's attribution slot for one view.
func (r *Report) viewUse(name string) *obs.ViewUse {
	if r.viewUses == nil {
		r.viewUses = map[string]*obs.ViewUse{}
	}
	vu, ok := r.viewUses[name]
	if !ok {
		vu = &obs.ViewUse{Name: name}
		r.viewUses[name] = vu
	}
	return vu
}

// ViewUses returns the per-view attribution collected for this query,
// sorted by view name (nil when no view was touched).
func (r *Report) ViewUses() []obs.ViewUse {
	if len(r.viewUses) == 0 {
		return nil
	}
	out := make([]obs.ViewUse, 0, len(r.viewUses))
	for _, vu := range r.viewUses {
		out = append(out, *vu)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Degraded reports whether any pattern was answered by a fallback after
// its preferred plan failed.
func (r *Report) Degraded() bool { return len(r.Degradations) > 0 }

// String renders the report. It tolerates partial reports (a pattern
// recorded but its plan not yet chosen when the query failed), so the
// telemetry of an aborted query is still printable.
func (r *Report) String() string {
	var sb strings.Builder
	for i := range r.Patterns {
		plan := "(none: query did not complete)"
		if i < len(r.Plans) {
			plan = r.Plans[i]
		}
		fmt.Fprintf(&sb, "pattern %d: %s\n  plan: %s\n", i+1, r.Patterns[i], plan)
		for _, d := range r.Degradations {
			if d.Pattern == i {
				fmt.Fprintf(&sb, "  degraded: plan %s failed: %s\n", d.Plan, d.Err)
			}
		}
	}
	return sb.String()
}

// AnalyzeString renders the EXPLAIN ANALYZE view: per pattern, the chosen
// plan and its operator tree annotated with rows, timings and checkpoint
// polls. Patterns without an operator tree (not run under Analyze) fall
// back to the plain report line.
func (r *Report) AnalyzeString() string {
	var sb strings.Builder
	for i := range r.Patterns {
		plan := "(none: query did not complete)"
		if i < len(r.Plans) {
			plan = r.Plans[i]
		}
		fmt.Fprintf(&sb, "pattern %d: %s\n  plan: %s\n", i+1, r.Patterns[i], plan)
		if i < len(r.Ops) && r.Ops[i] != nil {
			for _, line := range strings.Split(strings.TrimRight(r.Ops[i].String(), "\n"), "\n") {
				fmt.Fprintf(&sb, "  %s\n", line)
			}
		}
	}
	return sb.String()
}

// Query parses, plans and executes an XQuery, returning the serialized XML
// result and the planning report.
func (e *Engine) Query(src string) (string, *Report, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context: cancellation and deadlines abort
// planning and execution (physical plans stop at their next cancellation
// checkpoint). A non-zero QueryTimeout is applied on top of ctx. On error
// the partial *Report gathered so far is returned alongside it, so
// degradation telemetry is never discarded. It is QueryResult with the
// answer copied into a string, for library callers and tests.
func (e *Engine) QueryContext(ctx context.Context, src string) (string, *Report, error) {
	return resultString(e.run(ctx, src, false))
}

// Analyze is Query with per-operator instrumentation (EXPLAIN ANALYZE):
// rewritten plans execute through the physical engine wrapped in
// physical.Instrument nodes, and Report.Ops carries one operator tree per
// pattern, annotated with rows, time and checkpoint polls.
func (e *Engine) Analyze(src string) (string, *Report, error) {
	return e.AnalyzeContext(context.Background(), src)
}

// AnalyzeContext is Analyze under a context.
func (e *Engine) AnalyzeContext(ctx context.Context, src string) (string, *Report, error) {
	return resultString(e.run(ctx, src, true))
}

// QueryResult is QueryContext returning the answer in its pooled buffer
// instead of a string — what a server writes to the wire. The caller must
// Release the Result (nil on error) when done with its bytes.
func (e *Engine) QueryResult(ctx context.Context, src string) (*Result, *Report, error) {
	return e.run(ctx, src, false)
}

// AnalyzeResult is AnalyzeContext returning the answer as QueryResult does.
func (e *Engine) AnalyzeResult(ctx context.Context, src string) (*Result, *Report, error) {
	return e.run(ctx, src, true)
}

// resultString copies a run's answer out of its pooled buffer.
func resultString(res *Result, report *Report, err error) (string, *Report, error) {
	defer res.Release()
	return string(res.Bytes()), report, err
}

// run is the one query path. Whatever executes the plans — the batch
// pipeline, the row or logical evaluators, a base scan — its rows go through
// one compiled template writer into one pooled buffer. A single-pattern
// query without value joins streams: the winning plan's batches are written
// as the root iterator produces them. Several patterns (or value joins)
// first combine into a relation, which is then written through the same
// writer.
func (e *Engine) run(ctx context.Context, src string, analyze bool) (res *Result, report *Report, err error) {
	m := e.m()
	m.queries.Inc()
	m.inflight.Add(1)
	start := time.Now()
	tr := obs.NewTrace("query")
	report = &Report{Trace: tr}
	fp := fingerprintSource(src) // refined to the pattern fingerprint below
	sink := &resultSink{res: newResult(), budget: physical.BudgetFrom(ctx)}
	defer func() {
		tr.End()
		dur := time.Since(start)
		m.inflight.Add(-1)
		m.queryNS.ObserveDuration(dur)
		m.fallbackDepth.Observe(int64(len(report.Degradations)))
		if report.Degraded() {
			m.queriesDegraded.Inc()
		}
		if err != nil {
			m.queryErrors.Inc()
			// A failed or killed query returns nothing, not a partial answer.
			sink.res.Release()
			res = nil
		}
		e.logQuery(src, fp, start, dur, report, sink.rows, err)
	}()
	if e.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.QueryTimeout)
		defer cancel()
	}
	span := tr.StartSpan(nil, "parse")
	q, err := xquery.Parse(src)
	span.End()
	if err != nil {
		return nil, report, err
	}
	span = tr.StartSpan(nil, "extract")
	ex, err := xquery.Extract(q)
	span.End()
	if err != nil {
		return nil, report, err
	}
	fp = fingerprintPatterns(ex.Patterns)
	if !analyze && e.instrumentSlow(fp) {
		// Slow-query capture: this fingerprint crossed the threshold
		// before, so run instrumented and let the log retain operator
		// stats for the recurrence.
		analyze = true
	}
	streaming := len(ex.Patterns) == 1 && len(ex.Joins) == 0
	var combined *algebra.Relation
	for i, pat := range ex.Patterns {
		if err := ctx.Err(); err != nil {
			return nil, report, err
		}
		report.Patterns = append(report.Patterns, pat.String())
		st, err := e.state(ex.DocNames[i])
		if err != nil {
			return nil, report, err
		}
		var out *resultSink
		if streaming {
			sink.w = algebra.NewResultWriter(ex.Template, pat.Schema())
			out = sink
		}
		pspan := tr.StartSpan(nil, fmt.Sprintf("pattern[%d]", i))
		rel, planDesc, ops, err := e.answerPattern(ctx, st, i, pat, report, tr, pspan, analyze, out)
		pspan.End()
		if err != nil {
			return nil, report, err
		}
		report.Plans = append(report.Plans, planDesc)
		if analyze {
			report.Ops = append(report.Ops, ops)
		}
		if combined == nil {
			combined = rel
		} else {
			combined = algebra.Product(combined, rel)
		}
	}
	if streaming {
		return sink.res, report, nil
	}
	span = tr.StartSpan(nil, "serialize")
	defer span.End()
	for _, j := range ex.Joins {
		combined, err = applyJoin(combined, j)
		if err != nil {
			return nil, report, err
		}
	}
	sink.w = algebra.NewResultWriter(ex.Template, combined.Schema)
	if err := sink.writeRelation(ctx, combined); err != nil {
		return nil, report, err
	}
	return sink.res, report, nil
}

// patternHasValuePred reports whether any node of the query pattern carries
// a value predicate — the precondition for predicate-absorption accounting.
func patternHasValuePred(pat *xam.Pattern) bool {
	for _, n := range pat.Nodes() {
		if n.HasValuePred {
			return true
		}
	}
	return false
}

// ctxErr reports whether err carries a context cancellation: those abort
// the query instead of triggering the fallback cascade.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// abortErr reports whether err must abort the query outright: context
// cancellation, or a per-query quota kill. A quota-killed plan must never
// degrade to the next rewriting or the base scan — the query has exhausted
// its resource envelope, and retrying it cheaper-but-slower would spend even
// more.
func abortErr(err error) bool {
	return ctxErr(err) || errors.Is(err, physical.ErrQuotaExceeded)
}

// answerPattern rewrites one query pattern over the document's current
// planning snapshot, and walks the fallback cascade on plan failure:
// next-best rewriting → base scan. Extents materialize lazily per plan —
// only the views a plan actually references are built, so failed or
// unreferenced views cost nothing. Every step down is recorded in
// report.Degradations and in the engine's metrics. Only context
// cancellation and base-scan failure abort the query.
//
// With a sink, the winning plan's rows are written into it as they are
// produced and no relation is returned; whatever a failed plan had written
// is rewound before the next one starts. Without one (the query has more
// patterns to combine) the pattern's relation is returned.
func (e *Engine) answerPattern(ctx context.Context, st *docState, patIdx int, pat *xam.Pattern, report *Report, tr *obs.Trace, pspan *obs.Span, analyze bool, sink *resultSink) (*algebra.Relation, string, *physical.OpStats, error) {
	m := e.m()
	budget := physical.BudgetFrom(ctx)
	degrade := func(plan string, err error) {
		m.degradations.Inc()
		report.Degradations = append(report.Degradations,
			Degradation{Pattern: patIdx, Plan: plan, Err: err.Error()})
	}
	pe := st.plan()
	if len(pe.views) > 0 {
		plans, err := e.compileRewritings(pe, pat, report, tr, pspan)
		if err != nil {
			if abortErr(err) {
				return nil, "", nil, err
			}
			degrade("(rewriting search)", err)
		}
		for _, plan := range plans {
			if err := ctx.Err(); err != nil {
				return nil, "", nil, err
			}
			m.plansTried.Inc()
			mspan := tr.StartSpan(pspan, "materialize")
			env, failedView, err := pe.envFor(st.doc, plan.Plan, e.Opts, budget, report, m, tr, mspan)
			mspan.End()
			if err != nil {
				if abortErr(err) {
					return nil, "", nil, err
				}
				// A failed view materialization kills only the plans that
				// reference the view; the next rewriting may avoid it, and
				// the slot stays unbuilt, so it is retried next time.
				degrade("(view materialization: "+failedView+")", err)
				continue
			}
			espan := tr.StartSpan(pspan, "execute")
			exStart := time.Now()
			rel, ops, err := e.execPlan(ctx, plan, env, analyze, report, sink)
			m.executeNS.Since(exStart)
			espan.End()
			if err == nil {
				// Predicate absorption accounting: a decorated query answered
				// from views absorbed its predicates into the view scans;
				// each σ_φ in the winning plan is a residual selection.
				if patternHasValuePred(pat) {
					m.predAbsorbed.Inc()
					report.PredAbsorbed = true
				}
				if n := rewrite.CountResidualSelections(plan.Plan); n > 0 {
					m.predResidual.Add(int64(n))
					report.ResidualSelections += n
				}
				// Per-view attribution: the winning plan's referenced extents
				// served this pattern (bytes as placed in the env).
				for name, rel := range env {
					vu := report.viewUse(name)
					vu.Referenced = true
					vu.ExtentBytes = rel.EstimatedBytes()
				}
				return rel, plan.Plan.String(), ops, nil
			}
			if abortErr(err) || ctx.Err() != nil {
				return nil, "", nil, err
			}
			degrade(plan.Plan.String(), err)
		}
	}
	if !e.FallbackToBase {
		return nil, "", nil, fmt.Errorf("engine: no rewriting for pattern %s", pat)
	}
	if err := ctx.Err(); err != nil {
		return nil, "", nil, err
	}
	m.baseScans.Inc()
	report.BaseScans++
	bspan := tr.StartSpan(pspan, "execute")
	exStart := time.Now()
	rel, err := evalBase(pat, st.doc)
	var baseRows int64
	if err == nil {
		baseRows = int64(rel.Len())
		if sink != nil {
			err = sink.writeRelation(ctx, rel)
			rel = nil // written, not returned
		}
	}
	exTime := time.Since(exStart)
	m.executeNS.ObserveDuration(exTime)
	bspan.End()
	if err != nil {
		return nil, "", nil, err
	}
	var ops *physical.OpStats
	if analyze {
		ops = &physical.OpStats{
			Label:     "base scan (direct evaluation)",
			Rows:      baseRows,
			NextCalls: baseRows,
			Time:      exTime,
		}
	}
	return rel, "base scan (direct evaluation)", ops, nil
}

// execPlan executes one rewriting with panics recovered into errors, so an
// operator bug in a plan degrades to the next plan instead of killing the
// process. Cancellation panics keep their context error. With analyze set,
// the plan runs through the instrumented physical path and the operator
// stats tree is returned. With a sink the plan's output is written into it
// (and rewound on failure) instead of being returned: batch by batch from
// the batch pipeline, as a relation from the other executors. Either way
// the output meets the query pattern's schema by position, so only a
// returned relation needs the AlignSchema rename.
func (e *Engine) execPlan(ctx context.Context, plan *rewrite.Rewriting, env rewrite.Env, analyze bool, report *Report, sink *resultSink) (rel *algebra.Relation, ops *physical.OpStats, err error) {
	if sink != nil {
		// A failed plan's partial output must not precede its replacement's.
		// An aborted query keeps its count for the log; run discards the
		// whole buffer.
		n, rows := len(sink.res.buf), sink.rows
		defer func() {
			if err != nil && !abortErr(err) {
				sink.rewind(n, rows)
			}
		}()
	}
	defer func() {
		if p := recover(); p != nil {
			if c, ok := p.(*physical.Cancelled); ok {
				rel, err = nil, c.Err
				return
			}
			// Keep recovered error values in the chain so the cascade's
			// callers can errors.Is/As on them (e.g. faultinject.ErrInjected
			// in resilience tests, sentinel errors from operators).
			if perr, ok := p.(error); ok {
				rel, err = nil, fmt.Errorf("engine: plan execution panic: %w", perr)
				return
			}
			rel, err = nil, fmt.Errorf("engine: plan execution panic: %v", p)
		}
	}()
	batch := e.UsePhysical && e.UseBatch
	switch {
	case batch && sink != nil:
		var info rewrite.BatchExecInfo
		ops, info, err = rewrite.ExecuteBatchEachContext(ctx, plan.Plan, env, analyze, sink.writeBatch)
		e.recordBatchExec(info, report)
		return nil, ops, err
	case batch && analyze:
		var info rewrite.BatchExecInfo
		rel, ops, info, err = rewrite.ExecuteBatchAnalyzeContext(ctx, plan.Plan, env)
		e.recordBatchExec(info, report)
	case batch:
		var info rewrite.BatchExecInfo
		rel, info, err = rewrite.ExecuteBatchContext(ctx, plan.Plan, env)
		e.recordBatchExec(info, report)
	case analyze:
		rel, ops, err = rewrite.ExecutePhysicalAnalyzeContext(ctx, plan.Plan, env)
	case e.UsePhysical:
		rel, err = rewrite.ExecutePhysicalContext(ctx, plan.Plan, env)
	default:
		// The logical evaluator is materialized end-to-end; check the context
		// at the boundary rather than per tuple.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rel, err = plan.Plan.Execute(env)
	}
	if err != nil {
		return nil, ops, err
	}
	if sink != nil {
		return nil, ops, sink.writeRelation(ctx, rel)
	}
	rel, err = plan.AlignSchema(rel)
	return rel, ops, err
}

// recordBatchExec folds one batch execution's accounting into the engine
// counters (engine.batches / engine.batch_fallbacks) and the query's
// report, so the workload observatory sees per-fingerprint batch figures.
func (e *Engine) recordBatchExec(info rewrite.BatchExecInfo, report *Report) {
	m := e.m()
	if info.Batches > 0 {
		m.batches.Add(info.Batches)
		report.Batches += info.Batches
	}
	if info.Fallbacks > 0 {
		m.batchFallbacks.Add(info.Fallbacks)
		report.BatchFallbacks += info.Fallbacks
	}
}

// evalBase runs direct evaluation with panics recovered into errors: the
// base scan is the cascade's floor, so its failure must surface as a
// query error, never a crash.
func evalBase(pat *xam.Pattern, doc *xmltree.Document) (rel *algebra.Relation, err error) {
	defer func() {
		if p := recover(); p != nil {
			if perr, ok := p.(error); ok {
				rel, err = nil, fmt.Errorf("engine: base evaluation panic: %w", perr)
				return
			}
			rel, err = nil, fmt.Errorf("engine: base evaluation panic: %v", p)
		}
	}()
	return pat.Eval(doc)
}

func applyJoin(r *algebra.Relation, j xquery.ValueJoin) (*algebra.Relation, error) {
	li := r.Schema.Index(j.LeftAttr)
	ri := r.Schema.Index(j.RightAttr)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("engine: join attribute %q/%q missing", j.LeftAttr, j.RightAttr)
	}
	ops := map[string]algebra.Cmp{"=": algebra.Eq, "!=": algebra.Ne, "<": algebra.Lt,
		"<=": algebra.Le, ">": algebra.Gt, ">=": algebra.Ge}
	op, ok := ops[j.Op]
	if !ok {
		return nil, fmt.Errorf("engine: unsupported comparator %q", j.Op)
	}
	out := algebra.NewRelation(r.Schema)
	for _, t := range r.Tuples {
		if op.Apply(t[li], t[ri]) {
			out.Add(t)
		}
	}
	return out, nil
}

// Explain plans a query without executing it — and without materializing
// anything: plan search runs over the views' patterns and the path summary
// only, so Explain on a cold catalog is read-only and cheap. It shares the
// rewriting cache with the query path, so a warm Explain skips the
// containment search too.
func (e *Engine) Explain(src string) (*Report, error) {
	return e.ExplainContext(context.Background(), src)
}

// ExplainContext is Explain under a context; the plan search for each
// pattern starts only while the context is live.
func (e *Engine) ExplainContext(ctx context.Context, src string) (*Report, error) {
	if e.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.QueryTimeout)
		defer cancel()
	}
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	ex, err := xquery.Extract(q)
	if err != nil {
		return nil, err
	}
	report := &Report{}
	for i, pat := range ex.Patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report.Patterns = append(report.Patterns, pat.String())
		st, err := e.state(ex.DocNames[i])
		if err != nil {
			return nil, err
		}
		desc := "base scan (direct evaluation)"
		pe := st.plan()
		if len(pe.views) > 0 {
			plans, err := e.compileRewritings(pe, pat, report, nil, nil)
			if err != nil {
				return nil, err
			}
			if len(plans) > 0 {
				desc = plans[0].Plan.String()
			} else if !e.FallbackToBase {
				desc = "NO PLAN"
			}
		}
		report.Plans = append(report.Plans, desc)
	}
	return report, nil
}
