package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"xamdb/internal/algebra"
	"xamdb/internal/engine"
	"xamdb/internal/rewrite"
	"xamdb/internal/summary"
	"xamdb/internal/xam"
	"xamdb/internal/xmltree"
	"xamdb/internal/xquery"
)

// span is one timed interval of the traced pass. Spans of one request share
// its number; Parent is the id of the span that caused this one, 0 for the
// request's root. Times are nanoseconds since the pass began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(request, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request,
		Name: name, StartNS: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) int64 {
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.t0))
	return s.EndNS - s.StartNS
}

// selfTimes is each span's duration minus its children's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// Span names: the request root, the HTTP round trip, and one per call of
// the stitched pipeline.
const (
	spRequest     = "request"
	spToggle      = "toggle"
	spRoundtrip   = "serve.roundtrip"
	spParse       = "xquery.parse"
	spExtract     = "xquery.extract"
	spCacheKey    = "xam.cache_key"
	spSearch      = "rewrite.search"
	spMaterialize = "rewrite.materialize"
	spExec        = "rewrite.exec"
	spAlign       = "rewrite.align"
	spBaseEval    = "xquery.base_eval"
	spXMLize      = "algebra.xmlize"
	spSerialize   = "algebra.serialize"
	spEncode      = "serve.encode"
	spRegister    = "engine.register_view"
	spDrop        = "engine.drop_view"
)

// stitchDoc is the benchmark's own copy of one document's planning state,
// assembled from public functions in the order the engine uses them: the
// same summary, the same views in the same order, its own plan memo and its
// own lazily built extents.
type stitchDoc struct {
	doc     *xmltree.Document
	sum     *summary.Summary
	views   []*rewrite.View
	base    rewrite.Env // store-supplied extents
	rw      *rewrite.Rewriter
	plans   map[string][]*rewrite.Rewriting
	extents map[string]*algebra.Relation
	opts    rewrite.Options
}

func newStitchDoc(e *engine.Engine, cd *catalogDoc) (*stitchDoc, error) {
	sd := &stitchDoc{doc: cd.doc, sum: e.Summary(cd.doc.Name), base: rewrite.Env{},
		extents: map[string]*algebra.Relation{}, opts: e.Opts}
	if cd.store != nil {
		sd.views = append(sd.views, cd.store.Views()...)
		sd.base = cd.store.Env()
	}
	for _, v := range cd.views {
		if err := sd.register(v); err != nil {
			return nil, err
		}
	}
	sd.replan()
	return sd, nil
}

// replan mirrors the engine publishing a new epoch: a fresh rewriter over
// the current views and an empty plan memo.
func (sd *stitchDoc) replan() {
	sd.rw = rewrite.NewRewriter(sd.sum, sd.views, sd.opts)
	sd.plans = map[string][]*rewrite.Rewriting{}
}

func (sd *stitchDoc) register(v viewSpec) error {
	p, err := xam.Parse(v.xam)
	if err != nil {
		return fmt.Errorf("view %s: %w", v.name, err)
	}
	sd.views = append(sd.views, &rewrite.View{Name: v.name, Pattern: p})
	return nil
}

func (sd *stitchDoc) drop(name string) {
	kept := sd.views[:0:0]
	for _, v := range sd.views {
		if v.Name != name {
			kept = append(kept, v)
		}
	}
	sd.views = kept
	delete(sd.extents, name) // the engine's extent dies with the view
}

// replayStat is what one replayed request contributes beside its spans.
type replayStat struct {
	searched           bool
	plans              int
	base               bool
	rowsIn, rowsOut    int64
	batches, fallbacks int64
	resultBytes        int
	encodedBytes       int
	stagesNS           int64 // Σ stage durations, parse … serialize
}

// tracer runs the traced pass of one instance.
type tracer struct {
	in   *instance
	rec  *recorder
	docs map[string]*stitchDoc
	// extent accounting over every extent an executed plan read
	seenExtent                           map[*algebra.Relation]bool
	extentRows, extentCells, extentBytes int64
}

func newTracer(in *instance) (*tracer, error) {
	t := &tracer{in: in, docs: map[string]*stitchDoc{}, seenExtent: map[*algebra.Relation]bool{}}
	for _, cd := range in.docs {
		sd, err := newStitchDoc(in.e, cd)
		if err != nil {
			return nil, err
		}
		t.docs[cd.doc.Name] = sd
	}
	return t, nil
}

// toggle flips the churn view in the engine and then in the stitched copy,
// and reports which way it went and how long the catalog call took; with a
// recorder the call is traced under a root of its own.
func (t *tracer) toggle(ch *churn, request int) (registered bool, ns int64, err error) {
	root, child := 0, 0
	if t.rec != nil {
		root = t.rec.begin(request, 0, spToggle)
		name := spRegister
		if t.in.churnOn {
			name = spDrop
		}
		child = t.rec.begin(request, root, name)
	}
	start := time.Now()
	on, err := t.in.toggle(ch)
	ns = int64(time.Since(start))
	if t.rec != nil {
		t.rec.end(child)
		t.rec.end(root)
	}
	if err != nil {
		return false, ns, err
	}
	sd := t.docs[ch.doc]
	if on {
		if err := sd.register(ch.view); err != nil {
			return false, ns, err
		}
	} else {
		sd.drop(ch.view.name)
	}
	sd.replan()
	return on, ns, nil
}

// replay answers the query through the stitched pipeline, one span per
// call, all children of root. missed says the engine's plan cache missed on
// this request, so the search is part of what the user waited for; on a hit
// a plan absent from the benchmark's memo is searched outside any span.
func (t *tracer) replay(ctx context.Context, request, root int, query string, rep reply, missed bool) (string, replayStat, error) {
	var st replayStat
	stage := func(name string, fn func() error) error {
		id := t.rec.begin(request, root, name)
		err := fn()
		ns := t.rec.end(id)
		if name != spEncode {
			st.stagesNS += ns
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var (
		q   xquery.Expr
		ex  *xquery.Extraction
		key string
		rel *algebra.Relation
	)
	if err := stage(spParse, func() (err error) { q, err = xquery.Parse(query); return }); err != nil {
		return "", st, err
	}
	if err := stage(spExtract, func() (err error) { ex, err = xquery.Extract(q); return }); err != nil {
		return "", st, err
	}
	if len(ex.Patterns) != 1 || len(ex.Joins) != 0 {
		return "", st, fmt.Errorf("replay handles single-pattern queries, %s has %d patterns", query, len(ex.Patterns))
	}
	pat := ex.Patterns[0]
	sd := t.docs[ex.DocNames[0]]
	if sd == nil {
		return "", st, fmt.Errorf("replay: unknown document %q", ex.DocNames[0])
	}
	_ = stage(spCacheKey, func() error { key = pat.CacheKey(); return nil })

	plans, have := sd.plans[key]
	search := func() (err error) { plans, err = sd.rw.Rewrite(pat); return }
	switch {
	case missed:
		if err := stage(spSearch, search); err != nil {
			return "", st, err
		}
		st.searched, st.plans = true, len(plans)
	case !have:
		if err := search(); err != nil {
			return "", st, fmt.Errorf("plan memo fill: %w", err)
		}
	}
	sd.plans[key] = plans

	if len(plans) == 0 {
		st.base = true
		if err := stage(spBaseEval, func() (err error) { rel, err = ex.Combine(sd.doc); return }); err != nil {
			return "", st, err
		}
	} else {
		plan := plans[0]
		env := rewrite.Env{}
		for _, name := range rewrite.ViewRefs(plan.Plan) {
			ext, ok := sd.base[name]
			if !ok {
				if ext, ok = sd.extents[name]; !ok {
					if err := stage(spMaterialize, func() (err error) {
						ext, err = sd.rw.MaterializeView(sd.doc, name)
						return
					}); err != nil {
						return "", st, err
					}
					sd.extents[name] = ext
				}
			}
			if ext == nil {
				continue
			}
			env[name] = ext
			st.rowsIn += int64(ext.Len())
			if !t.seenExtent[ext] {
				t.seenExtent[ext] = true
				t.extentRows += int64(ext.Len())
				t.extentCells += int64(ext.Len() * len(ext.Schema.Attrs))
				t.extentBytes += ext.EstimatedBytes()
			}
		}
		if err := stage(spExec, func() error {
			out, info, err := rewrite.ExecuteBatchContext(ctx, plan.Plan, env)
			rel, st.batches, st.fallbacks = out, info.Batches, info.Fallbacks
			return err
		}); err != nil {
			return "", st, err
		}
		if err := stage(spAlign, func() (err error) { rel, err = plan.AlignSchema(rel); return }); err != nil {
			return "", st, err
		}
	}
	st.rowsOut = int64(rel.Len())

	var (
		nodes  []*xmltree.Node
		result string
	)
	if err := stage(spXMLize, func() (err error) { nodes, err = algebra.XMLize(rel, ex.Template); return }); err != nil {
		return "", st, err
	}
	_ = stage(spSerialize, func() error { result = algebra.SerializeNodes(nodes); return nil })
	st.resultBytes = len(result)

	// The response shape serve.handleQuery encodes, indented as it does.
	body := rep.body
	body.Result = result
	if err := stage(spEncode, func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(body)
		st.encodedBytes = buf.Len()
		return err
	}); err != nil {
		return "", st, err
	}
	return result, st, nil
}

// stageStat is one stage's share of the stitched requests' time.
type stageStat struct {
	Name   string
	SelfMS float64
	Share  float64
}

// runTraced is the traced run: fresh set-up, one client, a fixed request
// count. The first quarter of the count again is sent untraced beforehand,
// so the tracing overhead is measured in the same process.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	in, err := newInstance(ctx, cfg.w, cfg.div)
	if err != nil {
		return nil, err
	}
	defer func() { _ = in.stop() }() // errors on the measured path are returned below
	or, err := newOracle(cfg.w, in)
	if err != nil {
		return nil, err
	}
	t, err := newTracer(in)
	if err != nil {
		return nil, err
	}
	n := cfg.tracedRequests
	if n <= 0 {
		n = cfg.w.tracedRequests
	}
	st := newStream(cfg.w, cfg.seed)

	var plainMS []float64
	for i := 0; i < n/4; i++ {
		rq, _ := st.next() // no deadline: the stream never ends
		if rq.toggle {
			if _, _, err := t.toggle(cfg.w.churn, 0); err != nil {
				return nil, err
			}
			continue
		}
		rep, err := in.post(ctx, rq.query)
		if err != nil {
			return nil, err
		}
		plainMS = append(plainMS, float64(rep.rtt)/1e6)
	}

	t.rec = &recorder{t0: time.Now()}
	var (
		res        = &result{Correct: true}
		classMS    = make([][]float64, len(cfg.w.classes))
		rttMS      []float64
		overheadUS []float64
		bytesOut   []float64
		queueUS    []float64
		unattrib   []float64
		stats      []replayStat
		registerUS []float64
		dropUS     []float64
	)
	first := in.e.Metrics.Snapshot()
	prev := first
	for i := 1; i <= n; i++ {
		rq, _ := st.next()
		if rq.toggle {
			registered, ns, err := t.toggle(cfg.w.churn, i)
			if err != nil {
				return nil, err
			}
			res.Toggles++
			if registered {
				registerUS = append(registerUS, float64(ns)/1e3)
			} else {
				dropUS = append(dropUS, float64(ns)/1e3)
			}
			continue
		}
		res.Attempted++
		root := t.rec.begin(i, 0, spRequest)
		rt := t.rec.begin(i, root, spRoundtrip)
		rep, err := in.post(ctx, rq.query)
		t.rec.end(rt)
		now := in.e.Metrics.Snapshot()
		missed := now.Counters[engine.MetricPlanCacheMisses] > prev.Counters[engine.MetricPlanCacheMisses]
		prev = now
		ok := err == nil && or.verify(rq.query, rep)
		if ok {
			var (
				stitched string
				rs       replayStat
			)
			stitched, rs, err = t.replay(ctx, i, root, rq.query, rep, missed)
			ok = err == nil && stitched == rep.body.Result
			if ok {
				stats = append(stats, rs)
				unattrib = append(unattrib, float64(rep.body.DurationNS-rs.stagesNS)/float64(rep.body.DurationNS))
			}
		}
		t.rec.end(root)
		if !ok {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(cfg.log, "FAILED %s: status=%d outcome=%q err=%v\n", rq.query, rep.status, rep.body.Outcome, err)
			continue
		}
		ms := float64(rep.rtt) / 1e6
		rttMS = append(rttMS, ms)
		classMS[rq.class] = append(classMS[rq.class], ms)
		overheadUS = append(overheadUS, float64(int64(rep.rtt)-rep.body.DurationNS)/1e3)
		bytesOut = append(bytesOut, float64(rep.bytes))
		queueUS = append(queueUS, float64(rep.body.QueueWaitNS)/1e3)
	}
	if len(stats) == 0 {
		return res, fmt.Errorf("no traced request succeeded out of %d", res.Attempted)
	}
	last := in.e.Metrics.Snapshot()
	delta := func(name string) float64 { return float64(last.Counters[name] - first.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Per-span aggregates by name.
	self := selfTimes(t.rec.spans)
	durMS := map[string][]float64{}
	selfNS := map[string]float64{}
	for i, s := range t.rec.spans {
		durMS[s.Name] = append(durMS[s.Name], float64(s.EndNS-s.StartNS)/1e6)
		selfNS[s.Name] += float64(self[i])
	}
	p50us := func(name string) float64 { return 1e3 * percentile(durMS[name], 0.50) }

	var searches, plans, rowsIn, rowsOut, batches, fallbacks, execs, baseScans, resultBytes, encodedBytes float64
	for _, rs := range stats {
		if rs.searched {
			searches++
			plans += float64(rs.plans)
		}
		if rs.base {
			baseScans++
		} else {
			execs++
		}
		rowsIn += float64(rs.rowsIn)
		if !rs.base {
			rowsOut += float64(rs.rowsOut)
		}
		batches += float64(rs.batches)
		fallbacks += float64(rs.fallbacks)
		resultBytes += float64(rs.resultBytes)
		encodedBytes += float64(rs.encodedBytes)
	}
	requests := float64(len(stats))
	shed := in.ctrl.Stats()

	m := map[string]float64{
		"serve.overhead_us_p50":       percentile(overheadUS, 0.50),
		"serve.response_bytes_p50":    percentile(bytesOut, 0.50),
		"serve.encode_ns_per_byte":    ratio(1e6*sum(durMS[spEncode]), encodedBytes),
		"admission.queue_wait_us_p50": percentile(queueUS, 0.50),
		"admission.queue_wait_us_p95": percentile(queueUS, 0.95),
		"admission.shed":              float64(shed.ShedQueueFull + shed.ShedQueueTimeout + shed.ShedDraining),
		"xquery.parse_us_p50":         p50us(spParse),
		"xquery.extract_us_p50":       p50us(spExtract),
		"xquery.base_eval_ms_p50":     percentile(durMS[spBaseEval], 0.50),
		"xam.cache_key_us_p50":        p50us(spCacheKey),

		"engine.plan_cache_hit_ratio": ratio(delta(engine.MetricPlanCacheHits),
			delta(engine.MetricPlanCacheHits)+delta(engine.MetricPlanCacheMisses)),
		"engine.base_scan_share":        ratio(delta(engine.MetricBaseScans), requests),
		"engine.pred_absorbed_share":    ratio(delta(engine.MetricPredAbsorbed), requests),
		"engine.batch_fallbacks":        delta(engine.MetricBatchFallbacks),
		"engine.views_materialized":     float64(last.Counters[engine.MetricViewsMaterialized]),
		"engine.unattributed_share":     percentile(unattrib, 0.50),
		"engine.register_view_us_p50":   percentile(registerUS, 0.50),
		"engine.drop_view_us_p50":       percentile(dropUS, 0.50),
		"rewrite.search_ms_p50":         percentile(durMS[spSearch], 0.50),
		"rewrite.search_ms_p95":         percentile(durMS[spSearch], 0.95),
		"rewrite.searches":              searches,
		"rewrite.plans_per_search":      ratio(plans, searches),
		"rewrite.materialize_ms_p50":    percentile(durMS[spMaterialize], 0.50),
		"rewrite.extent_rows":           float64(t.extentRows),
		"rewrite.exec_ms_p50":           percentile(durMS[spExec], 0.50),
		"rewrite.exec_ns_per_row_in":    ratio(1e6*sum(durMS[spExec]), rowsIn),
		"rewrite.exec_ns_per_row_out":   ratio(1e6*sum(durMS[spExec]), rowsOut),
		"physical.batches_per_exec":     ratio(batches, execs),
		"physical.rows_per_batch":       ratio(rowsOut, batches),
		"physical.fallbacks":            fallbacks,
		"algebra.xmlize_us_p50":         p50us(spXMLize),
		"algebra.serialize_us_p50":      p50us(spSerialize),
		"algebra.serialize_ns_per_byte": ratio(1e6*sum(durMS[spSerialize]), resultBytes),
		"algebra.extent_bytes_per_cell": ratio(float64(t.extentBytes), float64(t.extentCells)),
		"trace.overhead_share":          ratio(percentile(rttMS, 0.50), percentile(plainMS, 0.50)) - 1,
	}
	for i := 0; i < maxClasses; i++ {
		var v float64
		if i < len(classMS) {
			v = percentile(classMS[i], 0.50)
		}
		m[fmt.Sprintf("engine.class.c%02d.ms_p50", i)] = v
	}
	for i, c := range cfg.w.classes {
		res.Classes = append(res.Classes, classStat{Query: c.query, Count: len(classMS[i]), P50MS: percentile(classMS[i], 0.50)})
	}
	if err := probeLayers(ctx, cfg.w, t, m); err != nil {
		return nil, err
	}
	res.Metrics = m

	// Each stitched stage's share of the stitched requests' time, for the
	// regime checks in README.md.
	notStitched := map[string]bool{spRequest: true, spRoundtrip: true, spToggle: true, spRegister: true, spDrop: true}
	var total float64
	for name, ns := range selfNS {
		if !notStitched[name] {
			total += ns
		}
	}
	for name, ns := range selfNS {
		if !notStitched[name] {
			res.Stages = append(res.Stages, stageStat{Name: name, SelfMS: ns / 1e6, Share: ratio(ns, total)})
		}
	}
	sort.Slice(res.Stages, func(i, j int) bool { return res.Stages[i].SelfMS > res.Stages[j].SelfMS })

	if cfg.traceOut != nil {
		if err := writeSpans(cfg, t.rec.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// maxClasses is the number of engine.class.cNN.ms_p50 slots BENCHMARK.json
// lists; a workload with fewer classes reports 0 in the rest.
const maxClasses = 12

func writeSpans(cfg config, spans []span) error {
	f, err := cfg.traceOut("trace_" + cfg.w.name + ".json")
	if err != nil {
		return fmt.Errorf("open span file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": cfg.w.name, "seed": cfg.seed, "spans": spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	return nil
}
