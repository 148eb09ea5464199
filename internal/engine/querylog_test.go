package engine

import (
	"strings"
	"testing"
	"time"

	"xamdb/internal/faultinject"
	"xamdb/internal/obs"
	"xamdb/internal/rewrite"
)

// TestQueryLogRecordsEveryQuery checks the log's core contract: every
// query lands in the log — clean, degraded and failed alike — with its
// fingerprint, plans, cache outcome, row count and phase latencies.
func TestQueryLogRecordsEveryQuery(t *testing.T) {
	e := newEngine(t)
	if err := e.RegisterView("bib.xml", "vt", `// book(/ title{cont})`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Query(`doc("bib.xml")//book/title`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Query(`doc("bib.xml")//book/title`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Query(`doc("`); err == nil {
		t.Fatal("parse error expected")
	}
	recs := e.QueryLog.Recent(0)
	if len(recs) != 3 {
		t.Fatalf("log must record every query: %d records", len(recs))
	}
	failed, warm, cold := recs[0], recs[1], recs[2]
	if failed.Error == "" || !strings.HasPrefix(failed.Fingerprint, "src-") {
		t.Fatalf("failed query must carry error and source fingerprint: %+v", failed)
	}
	if cold.Fingerprint == "" || cold.Fingerprint != warm.Fingerprint {
		t.Fatalf("same pattern must share a fingerprint: %q vs %q", cold.Fingerprint, warm.Fingerprint)
	}
	if cold.CacheMisses != 1 || warm.CacheHits != 1 {
		t.Fatalf("cache outcome per query: cold=%+v warm=%+v", cold, warm)
	}
	if len(cold.Plans) != 1 || !strings.Contains(cold.Plans[0], "vt") {
		t.Fatalf("record must name the chosen plan: %+v", cold.Plans)
	}
	if cold.RowsOut != 2 {
		t.Fatalf("rows out = %d, want 2", cold.RowsOut)
	}
	if cold.PhasesNS["parse"] == 0 || cold.PhasesNS["execute"] == 0 {
		t.Fatalf("per-phase latencies missing: %+v", cold.PhasesNS)
	}
	if cold.PhasesNS["materialize"] == 0 {
		t.Fatalf("cold query must charge materialize time: %+v", cold.PhasesNS)
	}

	// Degraded queries are logged with their degradation count.
	killExtentForTest(t, e, "bib.xml", "vt")
	if _, rep, err := e.Query(`doc("bib.xml")//book/title`); err != nil || !rep.Degraded() {
		t.Fatalf("expected degraded query: err=%v", err)
	}
	if rec := e.QueryLog.Recent(1)[0]; rec.Degraded != 1 {
		t.Fatalf("degradations must land in the record: %+v", rec)
	}
}

// TestSlowQueryCapture checks the slow-query pipeline: a threshold-
// crossing query retains its full trace; because its fingerprint is noted,
// the recurrence runs instrumented and retains operator stats too.
func TestSlowQueryCapture(t *testing.T) {
	e := newEngine(t)
	e.QueryLog = obs.NewQueryLog(16, time.Nanosecond) // everything is slow
	if err := e.RegisterView("bib.xml", "vt", `// book(/ title{cont})`); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := e.Query(`doc("bib.xml")//book/title`); err != nil || len(rep.Ops) != 0 {
		t.Fatalf("first run must not be instrumented: err=%v ops=%d", err, len(rep.Ops))
	}
	first := e.QueryLog.Slow(1)[0]
	if len(first.Trace) == 0 {
		t.Fatalf("slow query must retain its trace: %+v", first)
	}
	if len(first.Ops) != 0 {
		t.Fatalf("first slow occurrence has no operator stats yet: %+v", first)
	}

	out, rep, err := e.Query(`doc("bib.xml")//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if out != titlesXML {
		t.Fatalf("instrumented recurrence must return the same result: %q", out)
	}
	if len(rep.Ops) != 1 || rep.Ops[0] == nil {
		t.Fatalf("recurrence of a slow fingerprint must run instrumented: %+v", rep.Ops)
	}
	second := e.QueryLog.Slow(1)[0]
	if len(second.Trace) == 0 || len(second.Ops) == 0 {
		t.Fatalf("recurring slow query must retain trace and operator stats: trace=%d ops=%d",
			len(second.Trace), len(second.Ops))
	}

	// A fast threshold never fires: no trace retention, no instrumentation.
	e2 := newEngine(t)
	e2.QueryLog = obs.NewQueryLog(16, time.Hour)
	if _, _, err := e2.Query(`doc("bib.xml")//book/title`); err != nil {
		t.Fatal(err)
	}
	if rec := e2.QueryLog.Recent(1)[0]; rec.Slow || len(rec.Trace) != 0 {
		t.Fatalf("fast query must not retain a trace: %+v", rec)
	}
}

// TestMaterializeSpanNamed is the regression test for the anonymous cold
// materialize span: the cold build must carry the view's name in the span
// tree and in the per-view materialization counter.
func TestMaterializeSpanNamed(t *testing.T) {
	e := newEngine(t)
	if err := e.RegisterView("bib.xml", "vt", `// book(/ title{cont})`); err != nil {
		t.Fatal(err)
	}
	_, rep, err := e.Query(`doc("bib.xml")//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Trace.String(); !strings.Contains(s, "materialize(vt)") {
		t.Fatalf("cold build must open a span named after the view:\n%s", s)
	}
	snap := e.Metrics.Snapshot()
	if got := snap.Counters[MetricViewMaterializedPrefix+"vt"]; got != 1 {
		t.Fatalf("per-view materialization counter = %d, want 1", got)
	}
	// Warm query: no cold build, no named span.
	_, rep, err = e.Query(`doc("bib.xml")//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Trace.String(); strings.Contains(s, "materialize(vt)") {
		t.Fatalf("warm query must not rebuild the extent:\n%s", s)
	}
}

// TestStateGaugesAndCatalog checks the scrape-time planning-state gauges
// and the catalog introspection across the extent lifecycle: unbuilt →
// failed → built.
func TestStateGaugesAndCatalog(t *testing.T) {
	e := newEngine(t)
	if err := e.RegisterView("bib.xml", "vt", `// book(/ title{cont})`); err != nil {
		t.Fatal(err)
	}
	assertExtent := func(want ExtentState) {
		t.Helper()
		cat := e.Catalog()
		if len(cat) != 1 || len(cat[0].Views) != 1 || cat[0].Views[0].Extent != want {
			t.Fatalf("catalog extent state: %+v, want %s", cat, want)
		}
	}
	gauge := func(name string) int64 {
		t.Helper()
		return e.Metrics.Snapshot().Gauges[name]
	}
	assertExtent(ExtentUnbuilt)
	if gauge(MetricViewExtentsUnbuilt) != 1 || gauge(MetricViewExtentsBuilt) != 0 {
		t.Fatal("fresh view must gauge as unbuilt")
	}

	faultinject.Arm(rewrite.SiteMaterializeView, faultinject.Fault{})
	if _, rep, err := e.Query(`doc("bib.xml")//book/title`); err != nil || !rep.Degraded() {
		t.Fatalf("materialization fault must degrade: err=%v", err)
	}
	faultinject.Reset()
	assertExtent(ExtentFailed)
	if gauge(MetricViewExtentsFailed) != 1 {
		t.Fatal("failed materialization must gauge as failed")
	}

	if _, _, err := e.Query(`doc("bib.xml")//book/title`); err != nil {
		t.Fatal(err)
	}
	assertExtent(ExtentBuilt)
	if gauge(MetricViewExtentsBuilt) != 1 || gauge(MetricViewExtentsFailed) != 0 {
		t.Fatal("healed build must gauge as built")
	}
	if gauge(MetricPlanCacheSize) != 1 {
		t.Fatalf("plan cache gauge = %d, want 1", gauge(MetricPlanCacheSize))
	}

	stats := e.PlanCacheStats()
	if len(stats) != 1 || stats[0].Entries != 1 || stats[0].Capacity != DefaultPlanCacheSize {
		t.Fatalf("plan cache stats: %+v", stats)
	}
	if stats[0].Epoch != 1 {
		t.Fatalf("epoch = %d, want 1 after one registration", stats[0].Epoch)
	}
}
