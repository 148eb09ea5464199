package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xamdb/internal/algebra"
	"xamdb/internal/datagen"
	"xamdb/internal/faultinject"
	"xamdb/internal/obs"
	"xamdb/internal/physical"
	"xamdb/internal/storage"
	"xamdb/internal/summary"
	"xamdb/internal/xmltree"
	"xamdb/internal/xquery"
)

// oracleRun answers src the way run did before the result writer: every
// pattern to an AlignSchema'd relation, product, value joins, then the
// retained XMLize → SerializeNodes. It shares planning and execution with
// run, so a difference can only come from the result path.
func oracleRun(t *testing.T, e *Engine, src string) string {
	t.Helper()
	ctx := context.Background()
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	ex, err := xquery.Extract(q)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	tr := obs.NewTrace("oracle")
	var combined *algebra.Relation
	for i, pat := range ex.Patterns {
		st, err := e.state(ex.DocNames[i])
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rel, _, _, err := e.answerPattern(ctx, st, i, pat, &Report{}, tr, tr.StartSpan(nil, "p"), false, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if combined == nil {
			combined = rel
		} else {
			combined = algebra.Product(combined, rel)
		}
	}
	for _, j := range ex.Joins {
		if combined, err = applyJoin(combined, j); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	nodes, err := algebra.XMLize(combined, ex.Template)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return algebra.SerializeNodes(nodes)
}

// The query texts of benchmark/workloads.go's four mixes (copied: the
// benchmark directory is not importable and must not change), templates
// filled with one constant that selects rows and one that selects none.
var (
	dblpMix = []string{
		`doc("dblp.xml")//article/title`,
		`doc("dblp.xml")//article/author`,
		`doc("dblp.xml")//book/title`,
		`for $x in doc("dblp.xml")//article where $x/year = "1999" return <r>{$x/title}</r>`,
		`for $x in doc("dblp.xml")//article where $x/year = "1000" return <r>{$x/title}</r>`,
		`doc("dblp.xml")//article[year="1997"]/title`,
		`doc("dblp.xml")//article[year="1000"]/title`,
		`doc("dblp.xml")//phdthesis/school`,
		`doc("dblp.xml")//inproceedings/booktitle`,
		`doc("dblp.xml")//www/url`,
	}
	itemsMix = []string{
		`doc("items.xml")//item[num < "500"]/payload`,
		`doc("items.xml")//item[num < "5000"]/payload`,
		`doc("items.xml")//item/payload`,
	}
	xmarkMix = []string{
		`doc("xmark.xml")//item/name`,
		`doc("xmark.xml")//person/name`,
		`doc("xmark.xml")//item/location`,
		`doc("xmark.xml")//item[quantity="1"]/name`,
		`doc("xmark.xml")//person/emailaddress`,
		`doc("xmark.xml")//open_auction/current`,
		`doc("xmark.xml")//closed_auction/price`,
		`doc("xmark.xml")//category/name`,
		`doc("xmark.xml")//person/address/city`,
		`doc("xmark.xml")//open_auction/bidder/increase`,
		`doc("xmark.xml")//mail/from`,
		`doc("xmark.xml")//open_auction/initial`,
	}
	// Beyond the mixes: two patterns with a value join (the relation-cursor
	// entry into the writer) and constructors around empty results.
	extraMix = []string{
		`for $a in doc("dblp.xml")//article, $b in doc("dblp.xml")//book where $a/year = $b/year return <p>{$a/title}{$b/title}</p>`,
		`for $x in doc("dblp.xml")//article return <r><t>{$x/title/text()}</t>{$x/nosuch}</r>`,
		`<all>{doc("dblp.xml")//book/title}</all>`,
	}
)

type mixDoc struct {
	doc     *xmltree.Document
	views   [][2]string
	queries []string
}

func mixDocs() []mixDoc {
	return []mixDoc{
		{datagen.DBLP(300), [][2]string{
			{"v_article_title", `// article{id s}(/ title{cont})`},
			{"v_article_author", `// article{id s}(/ author{cont})`},
			{"v_book_title", `// book(/ title{cont})`},
			{"v_article_year", `// article{id s}(/ year{id s, val})`},
			{"v_title", `// title{id s, cont}`},
		}, append(append([]string{}, dblpMix...), extraMix...)},
		{datagen.SerialItems(2500), [][2]string{{"v_item", `// item(/ num{val}, / payload{cont})`}}, itemsMix},
		{datagen.XMark(5, 20, 15), [][2]string{
			{"v_item_name", `// item{id s}(/ name{cont})`},
			{"v_person_email", `// person(/ emailaddress{cont})`},
			{"v_item_loc", `// item(/ location{cont})`},
			{"v_auction_current", `// open_auction(/ current{cont})`},
			{"v_churn", `// person(/ name{cont})`},
		}, xmarkMix},
	}
}

// TestResultPathDifferential runs every workload query through the writer
// path and through the retained oracle path, over tag-store, path-store and
// view catalogs and on every executor, and demands identical bytes — and
// agreement with direct evaluation, so both being wrong the same way would
// show too.
func TestResultPathDifferential(t *testing.T) {
	catalogs := map[string]func(e *Engine, d mixDoc) error{
		"tag": func(e *Engine, d mixDoc) error {
			st, err := storage.TagPartitioned(d.doc)
			if err != nil {
				return err
			}
			return e.RegisterStore(d.doc.Name, st)
		},
		"path": func(e *Engine, d mixDoc) error {
			st, err := storage.PathPartitioned(d.doc, summary.Build(d.doc))
			if err != nil {
				return err
			}
			return e.RegisterStore(d.doc.Name, st)
		},
		"views": func(e *Engine, d mixDoc) error {
			for _, v := range d.views {
				if err := e.RegisterView(d.doc.Name, v[0], v[1]); err != nil {
					return err
				}
			}
			return nil
		},
		"tag+views": func(e *Engine, d mixDoc) error {
			st, err := storage.TagPartitioned(d.doc)
			if err != nil {
				return err
			}
			if err := e.RegisterStore(d.doc.Name, st); err != nil {
				return err
			}
			for _, v := range d.views {
				if err := e.RegisterView(d.doc.Name, v[0], v[1]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	executors := map[string]func(e *Engine){
		"batch":   func(e *Engine) { e.UsePhysical, e.UseBatch = true, true },
		"row":     func(e *Engine) { e.UsePhysical, e.UseBatch = true, false },
		"logical": func(e *Engine) { e.UsePhysical = false },
	}
	docs := mixDocs()
	leased := resultsLeased.Load()
	for cname, register := range catalogs {
		for xname, configure := range executors {
			t.Run(cname+"/"+xname, func(t *testing.T) {
				e := New()
				configure(e)
				for _, d := range docs {
					e.AddDocument(d.doc)
					if err := register(e, d); err != nil {
						t.Fatal(err)
					}
				}
				for _, d := range docs {
					for _, q := range d.queries {
						got, rep, err := e.QueryContext(context.Background(), q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						if want := oracleRun(t, e, q); got != want {
							t.Fatalf("%s (plans %v): writer path and oracle path differ\nwriter %.300q\noracle %.300q", q, rep.Plans, got, want)
						}
						if strings.Contains(q, " $b ") {
							continue // EvaluateString takes one document's queries
						}
						direct, err := xquery.EvaluateString(q, d.doc)
						if err != nil {
							t.Fatalf("%s: direct evaluation: %v", q, err)
						}
						if got != direct {
							t.Fatalf("%s (plans %v): differs from direct evaluation\nengine %.300q\ndirect %.300q", q, rep.Plans, got, direct)
						}
						// Analyze shares the writer; it must not change the answer.
						if again, _, err := e.AnalyzeContext(context.Background(), q); err != nil || again != got {
							t.Fatalf("%s: analyze run differs (err %v)", q, err)
						}
					}
				}
			})
		}
	}
	if n := resultsLeased.Load(); n != leased {
		t.Fatalf("%d result buffers still leased after every query returned", n-leased)
	}
}

// TestRowsOutQuotaKillsMidWrite: the quota is charged while the answer is
// being written — the kill lands after the first batch is already in the
// buffer — and the caller still gets nothing, with the buffer back in the
// pool.
func TestRowsOutQuotaKillsMidWrite(t *testing.T) {
	e := New()
	e.UsePhysical, e.UseBatch = true, true
	doc := datagen.DBLP(4000)
	e.AddDocument(doc)
	if err := e.RegisterView(doc.Name, "v_title", `// title{id s, cont}`); err != nil {
		t.Fatal(err)
	}
	const q = `doc("dblp.xml")//title`
	full, rep, err := e.QueryResult(context.Background(), q)
	if err != nil || !strings.Contains(rep.Plans[0], "v_title") {
		t.Fatalf("unlimited run: plans %v err %v", rep.Plans, err)
	}
	rows := int64(strings.Count(string(full.Bytes()), "<title"))
	full.Release()
	if rows <= 2*physical.BatchSize {
		t.Fatalf("only %d rows: the kill would not land mid-write", rows)
	}

	leased := resultsLeased.Load()
	ctx := budgetCtx(physical.BudgetLimits{MaxRowsOut: physical.BatchSize + 1})
	res, rep, err := e.QueryResult(ctx, q)
	if !errors.Is(err, physical.ErrQuotaExceeded) {
		t.Fatalf("want a quota kill, got err=%v", err)
	}
	if res != nil {
		t.Fatalf("killed query returned %d bytes", len(res.Bytes()))
	}
	if rep.Degraded() {
		t.Fatalf("a quota kill must abort, not degrade: %s", rep)
	}
	if n := resultsLeased.Load(); n != leased {
		t.Fatalf("killed query kept %d buffer(s) leased", n-leased)
	}
	recs := e.QueryLog.Recent(1)
	if len(recs) != 1 || recs[0].Outcome != "quota_killed" || recs[0].RowsOut <= physical.BatchSize {
		t.Fatalf("log record of the kill: %+v (rows_out must show the write was under way)", recs)
	}
	// The same query within quota is served whole afterwards.
	ok, _, err := e.QueryContext(budgetCtx(physical.BudgetLimits{MaxRowsOut: rows}), q)
	if err != nil || int64(strings.Count(ok, "<title")) != rows {
		t.Fatalf("within-quota rerun: err=%v", err)
	}
}

// TestFailedPlanLeavesNoBytes: a plan that dies after a batch of its output
// is already written is rewound before its replacement writes the answer.
func TestFailedPlanLeavesNoBytes(t *testing.T) {
	e := New()
	e.UsePhysical, e.UseBatch = true, true
	doc := datagen.DBLP(4000)
	e.AddDocument(doc)
	if err := e.RegisterView(doc.Name, "v_title", `// title{id s, cont}`); err != nil {
		t.Fatal(err)
	}
	const q = `doc("dblp.xml")//title`
	want, err := xquery.EvaluateString(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := e.Query(q); err != nil || got != want {
		t.Fatalf("clean run differs from direct evaluation (err %v)", err)
	}
	defer faultinject.Reset()
	faultinject.Arm(SiteWriteBatch, faultinject.Fault{SkipFirst: 1})
	got, rep, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if faultinject.Hits(SiteWriteBatch) < 2 || !rep.Degraded() {
		t.Fatalf("the fault must land on the second batch and degrade the plan: hits=%d report %s", faultinject.Hits(SiteWriteBatch), rep)
	}
	if got != want {
		t.Fatalf("answer after a mid-stream failure: %d bytes, want %d (the failed plan's first batch must be rewound)", len(got), len(want))
	}
}

// TestStateGaugesTrackCatalog: whoever snapshots the registry — not only
// the /metrics handler — reads state gauges that agree with Catalog() and
// PlanCacheStats(), through a register → query → drop sequence.
func TestStateGaugesTrackCatalog(t *testing.T) {
	e := newEngine(t)
	check := func(step string) {
		t.Helper()
		var built, unbuilt, failed, cached int64
		for _, d := range e.Catalog() {
			for _, v := range d.Views {
				switch v.Extent {
				case ExtentBuilt:
					built++
				case ExtentUnbuilt:
					unbuilt++
				case ExtentFailed:
					failed++
				}
			}
		}
		for _, pc := range e.PlanCacheStats() {
			cached += int64(pc.Entries)
		}
		g := e.Metrics.Snapshot().Gauges
		got := [4]int64{g[MetricPlanCacheSize], g[MetricViewExtentsBuilt], g[MetricViewExtentsUnbuilt], g[MetricViewExtentsFailed]}
		if want := [4]int64{cached, built, unbuilt, failed}; got != want {
			t.Fatalf("%s: gauges [cache built unbuilt failed] = %v, catalog says %v", step, got, want)
		}
	}
	check("fresh")
	for i, v := range []string{`// book(/ title{cont})`, `// book(/ author{cont})`} {
		if err := e.RegisterView("bib.xml", fmt.Sprintf("v%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	check("registered")
	if g := e.Metrics.Snapshot().Gauges; g[MetricViewExtentsUnbuilt] != 2 {
		t.Fatalf("two registered views must gauge as unbuilt, got %d", g[MetricViewExtentsUnbuilt])
	}
	if _, _, err := e.Query(`doc("bib.xml")//book/title`); err != nil {
		t.Fatal(err)
	}
	check("queried")
	if g := e.Metrics.Snapshot().Gauges; g[MetricViewExtentsBuilt] != 1 || g[MetricPlanCacheSize] != 1 {
		t.Fatalf("after one query: built=%d cache=%d, want 1 and 1", g[MetricViewExtentsBuilt], g[MetricPlanCacheSize])
	}
	if err := e.DropView("bib.xml", "v0"); err != nil {
		t.Fatal(err)
	}
	check("dropped")
	if g := e.Metrics.Snapshot().Gauges; g[MetricViewExtentsBuilt] != 0 || g[MetricPlanCacheSize] != 0 {
		t.Fatalf("after the drop: built=%d cache=%d, want 0 and 0", g[MetricViewExtentsBuilt], g[MetricPlanCacheSize])
	}
	// A registry swapped in before serving gets the collector too.
	e.Metrics = obs.NewRegistry()
	if _, _, err := e.Query(`doc("bib.xml")//book/author`); err != nil {
		t.Fatal(err)
	}
	check("new registry")
}
