package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"xamdb/internal/admission"
	"xamdb/internal/engine"
	"xamdb/internal/serve"
	"xamdb/internal/storage"
	"xamdb/internal/xmltree"
	"xamdb/internal/xquery"
)

// catalogDoc is one registered document with what was registered beside it.
type catalogDoc struct {
	doc     *xmltree.Document
	store   *storage.Store // nil without a tag store
	views   []viewSpec
	buildNS int64 // storage.TagPartitioned
}

// instance is one served engine: built exactly as `uload -serve` builds it,
// listening on a loopback port, with the clients that drive it.
type instance struct {
	e      *engine.Engine
	ctrl   *admission.Controller
	docs   []*catalogDoc
	url    string
	client *http.Client
	stop   func() error
	// churnOn records whether the workload's churn view is registered;
	// whichever client draws a toggle flips it under churnMu.
	churnMu sync.Mutex
	churnOn bool
}

// clientCount is the closed loop's size: callers of /query wait for their
// reply, and one process drives the load, so never more clients than cores.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// newInstance generates the workload's documents, registers stores and
// views, starts serving, and runs every class once over HTTP so that lazy
// extents are built and (for fixed queries) plans are cached. All of it is
// the set-up a user waits for before the first fast answer.
func newInstance(ctx context.Context, w *workload, div int) (*instance, error) {
	e := engine.New()
	e.UsePhysical = true
	e.UseBatch = true
	in := &instance{e: e}
	for _, spec := range w.docs {
		doc := spec.gen(div)
		e.AddDocument(doc)
		cd := &catalogDoc{doc: doc, views: spec.views}
		if spec.tagStore {
			start := time.Now()
			st, err := storage.TagPartitioned(doc)
			if err != nil {
				return nil, fmt.Errorf("tag store of %s: %w", doc.Name, err)
			}
			cd.buildNS = int64(time.Since(start))
			if err := e.RegisterStore(doc.Name, st); err != nil {
				return nil, fmt.Errorf("register store of %s: %w", doc.Name, err)
			}
			cd.store = st
		}
		for _, v := range spec.views {
			if err := e.RegisterView(doc.Name, v.name, v.xam); err != nil {
				return nil, fmt.Errorf("register view %s: %w", v.name, err)
			}
		}
		in.docs = append(in.docs, cd)
	}

	in.ctrl = admission.New(admission.Config{Metrics: e.Metrics})
	srv := serve.NewWithQuery(e, in.ctrl)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	in.url = "http://" + srv.Addr() + "/query"
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx) }()
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clientCount()}}
	in.stop = func() error {
		in.client.CloseIdleConnections()
		cancel()
		return <-done
	}

	for _, c := range w.classes {
		rep, err := in.post(ctx, c.fill("0"))
		if err == nil && !rep.served() {
			err = fmt.Errorf("status %d outcome %q: %s", rep.status, rep.body.Outcome, rep.body.Error)
		}
		if err != nil {
			_ = in.stop() // the first error is the one to report
			return nil, fmt.Errorf("warm %s: %w", c.query, err)
		}
	}
	return in, nil
}

func (in *instance) doc(name string) *catalogDoc {
	for _, cd := range in.docs {
		if cd.doc.Name == name {
			return cd
		}
	}
	return nil
}

// queryReply is the part of the POST /query response the benchmark reads.
type queryReply struct {
	Outcome     string   `json:"outcome"`
	Result      string   `json:"result"`
	Plans       []string `json:"plans"`
	Patterns    []string `json:"patterns"`
	Error       string   `json:"error"`
	QueueWaitNS int64    `json:"queue_wait_ns"`
	DurationNS  int64    `json:"duration_ns"`
}

type reply struct {
	status int
	bytes  int
	rtt    time.Duration // request written → last body byte read
	body   queryReply
}

func (r reply) served() bool { return r.status == http.StatusOK && r.body.Outcome == "served" }

// post sends one query and reads the whole reply. The clock stops when the
// body has arrived, before the benchmark's own decoding and checking.
func (in *instance) post(ctx context.Context, query string) (reply, error) {
	payload, err := json.Marshal(map[string]string{"query": query})
	if err != nil {
		return reply{}, fmt.Errorf("encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.url, bytes.NewReader(payload))
	if err != nil {
		return reply{}, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := in.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("POST /query: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("read reply: %w", err)
	}
	out := reply{status: resp.StatusCode, bytes: len(data), rtt: rtt}
	if err := json.Unmarshal(data, &out.body); err != nil && resp.StatusCode == http.StatusOK {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	return out, nil
}

// digest identifies a result string without keeping it (the largest is over
// a megabyte and would show up in live_heap_mb).
type digest struct {
	sum uint64
	n   int
}

func digestOf(s string) digest {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s) // hash.Hash writes never fail
	return digest{h.Sum64(), len(s)}
}

// oracle maps a query text to the digest of its direct evaluation.
type oracle map[string]digest

// checkedConstant picks the template constants verified against the oracle:
// one in sixteen, plus every year that occurs in the data, so the non-empty
// answers are all checked.
func checkedConstant(i int) bool {
	year := 1000 + i
	return i%16 == 0 || (year >= 1990 && year <= 2004)
}

// newOracle evaluates every fixed query, and the checked constants of every
// template, directly over the documents with xquery.EvaluateString.
func newOracle(w *workload, in *instance) (oracle, error) {
	or := oracle{}
	add := func(q string) error {
		parsed, err := xquery.Parse(q)
		if err != nil {
			return fmt.Errorf("oracle parse %s: %w", q, err)
		}
		ex, err := xquery.Extract(parsed)
		if err != nil {
			return fmt.Errorf("oracle extract %s: %w", q, err)
		}
		if len(ex.DocNames) != 1 {
			return fmt.Errorf("oracle: %s has %d patterns, want one", q, len(ex.DocNames))
		}
		cd := in.doc(ex.DocNames[0])
		if cd == nil {
			return fmt.Errorf("oracle: %s names unknown document %q", q, ex.DocNames[0])
		}
		want, err := xquery.EvaluateString(q, cd.doc)
		if err != nil {
			return fmt.Errorf("oracle evaluate %s: %w", q, err)
		}
		or[q] = digestOf(want)
		return nil
	}
	for _, c := range w.classes {
		if !c.template() {
			if err := add(c.query); err != nil {
				return nil, err
			}
			continue
		}
		for i := 0; i < w.constants; i++ {
			if checkedConstant(i) {
				if err := add(c.fill(constant(i))); err != nil {
					return nil, err
				}
			}
		}
	}
	return or, nil
}

// verify reports whether a reply is a correct answer to query: served, and
// equal to direct evaluation when the oracle holds the query.
func (or oracle) verify(query string, r reply) bool {
	if !r.served() {
		return false
	}
	want, checked := or[query]
	return !checked || digestOf(r.body.Result) == want
}
