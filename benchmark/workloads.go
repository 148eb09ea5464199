package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"xamdb/internal/datagen"
	"xamdb/internal/xmltree"
)

// viewSpec is one XAM registered with RegisterView, in registration order
// (the rewriter's plan choice can depend on it, so it is a slice, not a map).
type viewSpec struct{ name, xam string }

// docSpec is one document of a workload's catalog: its generator (fixed
// generator seed inside datagen; div shrinks it for the smoke test), whether
// the tag-partitioned store is registered, and the views registered on top.
type docSpec struct {
	gen      func(div int) *xmltree.Document
	tagStore bool
	views    []viewSpec
}

// class is one fixed query class of a workload. A query holding "%s" is a
// template: every request fills in the next constant of the workload's
// seed-shuffled cycle. nest marks plans with a nest join, the one operator
// that still leaves the batch pipeline (one engine.batch_fallbacks each).
type class struct {
	query  string
	weight int
	nest   bool
}

// churn makes every every-th draw of the run's stream — whichever client
// draws it — a catalog toggle: alternately RegisterView and DropView of view
// on document doc. every is one more than a whole number of weight blocks,
// so each toggle is followed by whole blocks: every query once per block.
type churn struct {
	doc   string
	view  viewSpec
	every int
}

type workload struct {
	name    string
	docs    []docSpec
	classes []class
	// constants > 0 sizes the cycle of distinct predicate constants
	// (1000, 1001, …) that template classes draw from.
	constants int
	churn     *churn
	// tracedRequests is the fixed request count of the traced pass, so
	// counts repeat exactly; sized for the pass to end within a run's time.
	tracedRequests int
}

// obsViews are the content-bearing DBLP views of internal/bench (the tag
// store's {id, val} modules cannot serve {cont}); registered in this order.
var obsViews = []viewSpec{
	{"v_article_title", `// article{id s}(/ title{cont})`},
	{"v_article_author", `// article{id s}(/ author{cont})`},
	{"v_book_title", `// book(/ title{cont})`},
	{"v_article_year", `// article{id s}(/ year{id s, val})`},
	{"v_title", `// title{id s, cont}`},
}

func dblp(pubs int) docSpec {
	return docSpec{
		gen:      func(div int) *xmltree.Document { return datagen.DBLP(pubs / div) },
		tagStore: true,
		views:    obsViews,
	}
}

const (
	dblpYearFLWOR = `for $x in doc("dblp.xml")//article where $x/year = "1999" return <r>{$x/title}</r>`
	// coldConstants is 4× engine.DefaultPlanCacheSize (256), so the LRU never
	// holds a constant when it comes round again; warm_point's 8 plans fit
	// the same cache 32 times over.
	coldConstants = 1024
)

// workloads lists the four traffic mixes in BENCHMARK.json order. Weights
// are exact shares of a block that each client reshuffles from its seed, so
// the mix is identical on every seed and only the order changes.
var workloads = []*workload{
	{
		// Zipf(s = 1.2) over eight ranks, as integer shares of a block of 100.
		name: "warm_point",
		docs: []docSpec{dblp(2000)},
		classes: []class{
			{query: `doc("dblp.xml")//article/title`, weight: 43},
			{query: `doc("dblp.xml")//article/author`, weight: 19},
			{query: `doc("dblp.xml")//book/title`, weight: 11},
			{query: dblpYearFLWOR, weight: 8, nest: true},
			{query: `doc("dblp.xml")//article[year="1997"]/title`, weight: 6},
			{query: `doc("dblp.xml")//phdthesis/school`, weight: 5},
			{query: `doc("dblp.xml")//inproceedings/booktitle`, weight: 4},
			{query: `doc("dblp.xml")//www/url`, weight: 4},
		},
		tracedRequests: 2000,
	},
	{
		name: "cold_plan",
		docs: []docSpec{dblp(2000)},
		classes: []class{
			{query: `doc("dblp.xml")//article[year="%s"]/title`, weight: 7},
			{query: `for $x in doc("dblp.xml")//article where $x/year = "%s" return <r>{$x/title}</r>`, weight: 3, nest: true},
		},
		constants:      coldConstants,
		tracedRequests: 150,
	},
	{
		name: "bulk_exec",
		docs: []docSpec{
			{
				gen:   func(div int) *xmltree.Document { return datagen.SerialItems(50000 / div) },
				views: []viewSpec{{"v_item", `// item(/ num{val}, / payload{cont})`}},
			},
			dblp(20000),
		},
		classes: []class{
			{query: `doc("items.xml")//item[num < "500"]/payload`, weight: 8},
			{query: `doc("items.xml")//item[num < "5000"]/payload`, weight: 7},
			{query: `doc("dblp.xml")//article/title`, weight: 5},
			{query: dblpYearFLWOR, weight: 4, nest: true},
			{query: `doc("items.xml")//item/payload`, weight: 2},
			{query: `doc("dblp.xml")//phdthesis/school`, weight: 1},
		},
		tracedRequests: 130,
	},
	{
		name: "view_churn",
		docs: []docSpec{{
			gen:      func(div int) *xmltree.Document { return datagen.XMark(50/div, 200/div, 150/div) },
			tagStore: true,
			views: []viewSpec{
				{"v_item_name", `// item{id s}(/ name{cont})`},
				{"v_person_email", `// person(/ emailaddress{cont})`},
				{"v_item_loc", `// item(/ location{cont})`},
				{"v_auction_current", `// open_auction(/ current{cont})`},
			},
		}},
		classes: []class{
			{query: `doc("xmark.xml")//item/name`, weight: 1},
			{query: `doc("xmark.xml")//person/name`, weight: 1},
			{query: `doc("xmark.xml")//item/location`, weight: 1},
			{query: `doc("xmark.xml")//item[quantity="1"]/name`, weight: 1},
			{query: `doc("xmark.xml")//person/emailaddress`, weight: 1},
			{query: `doc("xmark.xml")//open_auction/current`, weight: 1},
			{query: `doc("xmark.xml")//closed_auction/price`, weight: 1},
			{query: `doc("xmark.xml")//category/name`, weight: 1},
			{query: `doc("xmark.xml")//person/address/city`, weight: 1},
			{query: `doc("xmark.xml")//open_auction/bidder/increase`, weight: 1},
			{query: `doc("xmark.xml")//mail/from`, weight: 1},
			{query: `doc("xmark.xml")//open_auction/initial`, weight: 1},
		},
		churn:          &churn{doc: "xmark.xml", view: viewSpec{"v_churn", `// person(/ name{cont})`}, every: 8*12 + 1},
		tracedRequests: 1000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// template reports whether the class's query takes a constant.
func (c class) template() bool { return strings.Contains(c.query, "%s") }

// fill instantiates a class's query with a constant (a no-op for fixed
// queries).
func (c class) fill(constant string) string {
	if !c.template() {
		return c.query
	}
	return fmt.Sprintf(c.query, constant)
}

// constant is the i-th value of the cycle. The range 1000…2023 spans the
// fifteen years present in the data (1990–2004), so some constants select
// rows and most select none; the search cost is the same for all.
func constant(i int) string { return fmt.Sprint(1000 + i) }

// request is one generated operation: a query of a class, or a catalog
// toggle.
type request struct {
	class  int
	query  string
	toggle bool
}

// stream generates the run's requests from the seed; the clients draw from
// it in turn, so within a block no two of them hold the same query, and the
// number of plan searches after a toggle does not depend on their timing.
// Class order comes from reshuffled weight blocks, constants from a walk
// over a shuffled cycle. Once a deadline is set and passed, the stream ends
// at the next boundary — of a block, or for a churn workload of a toggle
// cycle — so that a run measures whole units of the mix whatever its length.
type stream struct {
	w *workload

	mu       sync.Mutex
	rng      *rand.Rand
	block    []int
	pos      int
	cycle    []int
	cpos     int
	drawn    int
	deadline time.Time // zero: no end
}

func newStream(w *workload, seed int64) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(seed))}
	for i, c := range w.classes {
		for k := 0; k < c.weight; k++ {
			s.block = append(s.block, i)
		}
	}
	s.pos = len(s.block) // shuffle before the first draw
	s.cycle = s.rng.Perm(w.constants)
	return s
}

func (s *stream) setDeadline(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadline = t
}

// next returns the next request, or false when the stream has ended.
func (s *stream) next() (request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.w.churn
	toggleNext := ch != nil && (s.drawn+1)%ch.every == 0
	if s.pos == len(s.block) && (ch == nil || toggleNext) &&
		!s.deadline.IsZero() && time.Now().After(s.deadline) {
		return request{}, false
	}
	s.drawn++
	if toggleNext {
		return request{toggle: true}, true
	}
	if s.pos == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	ci := s.block[s.pos]
	s.pos++
	c := s.w.classes[ci]
	if !c.template() {
		return request{class: ci, query: c.query}, true
	}
	k := s.cycle[s.cpos%len(s.cycle)]
	s.cpos++
	return request{class: ci, query: c.fill(constant(k))}, true
}
