// Package serve is the engine's HTTP front end: the production query path
// (POST /query, admission-controlled) plus the live monitoring surface —
// Prometheus metrics, the structured query log, catalog and plan-cache
// introspection, admission statistics, health probes and pprof over a
// running engine, so a long-lived process can be queried, scraped, alerted
// on and profiled under load (CLI: uload -serve). See DESIGN.md "Serving &
// monitoring" for the endpoint table and response schemas.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"xamdb/internal/admission"
	"xamdb/internal/engine"
	"xamdb/internal/obs"
)

// ShutdownTimeout bounds how long Serve waits for in-flight requests
// (e.g. a running pprof profile) after its context is cancelled.
const ShutdownTimeout = 5 * time.Second

// MaxQueryBodyBytes caps the POST /query request body; larger bodies are
// rejected with 413 before any parsing.
const MaxQueryBodyBytes = 1 << 20

// maxLogParam caps the ?n / ?k query-log view sizes, so a hostile or
// fat-fingered parameter cannot make one scrape copy the entire retained
// window many times over.
const maxLogParam = 1000

// Embedded http.Server hardening: slowloris-resistant header/body reads, a
// write ceiling generous enough for 30s pprof profiles and max-deadline
// queries, bounded idle keep-alives and header size.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	minWriteTimeout   = 2 * time.Minute
	maxHeaderBytes    = 1 << 20
)

// Server exposes one engine's query path and observability over HTTP.
// Create with New (monitoring only) or NewWithQuery (adds the
// admission-controlled POST /query path), bind with Listen, then run Serve
// until the context is cancelled.
type Server struct {
	e    *engine.Engine
	ctrl *admission.Controller
	http *http.Server
	ln   net.Listener
}

// New builds a monitoring-only server over the engine (no /query path).
// The handler is safe for concurrent use alongside live queries and view
// registrations: every endpoint reads copy-on-write snapshots or
// goroutine-safe registries.
func New(e *engine.Engine) *Server {
	return NewWithQuery(e, nil)
}

// NewWithQuery builds a server with the production query path: POST /query
// runs engine queries through the admission controller (bounded worker
// pool, FIFO queue, per-query deadlines and quotas, overload shedding),
// and /debug/admission exposes its accounting. A nil controller serves
// monitoring only, with /query answering 503.
func NewWithQuery(e *engine.Engine, ctrl *admission.Controller) *Server {
	s := &Server{e: e, ctrl: ctrl}
	wt := minWriteTimeout
	if ctrl != nil {
		// The write timeout must outlast the longest admitted query: queue
		// wait + clamped deadline + serialization slack.
		if d := ctrl.Config().MaxDeadline + ctrl.Config().QueueTimeout + 30*time.Second; d > wt {
			wt = d
		}
	}
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      wt,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	return s
}

// Handler returns the serving mux:
//
//	/query            POST: admission-controlled query execution (JSON)
//	/metrics          Prometheus text exposition (engine registry + top-K
//	                  workload fingerprint/view series)
//	/debug/queries    query log: recent, slow, top-K by latency, error tail
//	/debug/workload   fingerprint-aggregated workload table + per-view
//	                  attribution (JSON; ?format=table for terminals)
//	/debug/advisor    view advisor: materialization candidates and cold
//	                  views (JSON; ?format=table)
//	/debug/catalog    documents, views, extent states, planning epochs
//	/debug/plancache  rewriting-cache occupancy and hit/miss totals
//	/debug/admission  admission-control accounting and configuration
//	/healthz          liveness (always 200)
//	/readyz           readiness (200 once a document is registered)
//	/debug/pprof/...  net/http/pprof profiles
//
// /debug/workload and /debug/advisor answer 503 with Retry-After while the
// admission controller drains.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/debug/admission", s.handleAdmission)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/queries", s.handleQueries)
	mux.HandleFunc("/debug/workload", s.handleWorkload)
	mux.HandleFunc("/debug/advisor", s.handleAdvisor)
	mux.HandleFunc("/debug/catalog", s.handleCatalog)
	mux.HandleFunc("/debug/plancache", s.handlePlanCache)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Listen binds the server's listener; Addr reports the bound address
// (useful with ":0" in tests).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the listener's bound address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on the bound listener until ctx is cancelled,
// then shuts down gracefully: the admission controller drains first —
// while the listener still accepts, so new /query requests get an explicit
// 503 instead of a connection refusal — finishing in-flight queries within
// the controller's drain deadline; then the HTTP server itself shuts down
// and in-flight scrapes finish within ShutdownTimeout. Returns nil on a
// clean context-driven shutdown (a forced query kill at the drain deadline
// surfaces as an error, but shutdown still completes).
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		return fmt.Errorf("serve: Serve called before Listen")
	}
	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(s.ln) }()
	select {
	case <-ctx.Done():
		var drainErr error
		if s.ctrl != nil {
			drainErr = s.ctrl.Drain(s.ctrl.Config().DrainTimeout)
		}
		shCtx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
		defer cancel()
		err := s.http.Shutdown(shCtx)
		<-errc // http.Serve has returned ErrServerClosed
		if err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		if drainErr != nil {
			return fmt.Errorf("serve: drain: %w", drainErr)
		}
		return nil
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}
}

// handleMetrics writes the registry snapshot (state gauges recomputed by
// the engine's snapshot collector) in Prometheus text format, with the
// workload observatory's top-K fingerprint and per-view series attached as
// labeled families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.e.Registry().Snapshot()
	snap.Labeled = s.e.Workload.PromFamilies(promWorkloadTopK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WriteProm(w); err != nil {
		// Headers are gone; all we can do is abort the response body.
		return
	}
}

// queriesResponse is the /debug/queries JSON schema.
type queriesResponse struct {
	SlowThresholdNS int64             `json:"slow_threshold_ns"`
	Recent          []obs.QueryRecord `json:"recent"`
	Slow            []obs.QueryRecord `json:"slow"`
	Top             []obs.QueryRecord `json:"top"`
	Errors          []obs.QueryRecord `json:"errors"`
}

// handleQueries serves the query log: ?n bounds the recent/slow/error
// views (default 50), ?k the top-by-latency view (default 10), and
// ?format=jsonl streams the raw retained window as JSON Lines instead.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	lg := s.e.QueryLog
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = lg.WriteJSONL(w)
		return
	}
	n := queryInt(r, "n", 50)
	k := queryInt(r, "k", 10)
	resp := queriesResponse{
		SlowThresholdNS: int64(lg.SlowThreshold()),
		Recent:          orEmpty(lg.Recent(n)),
		Slow:            orEmpty(lg.Slow(n)),
		Top:             orEmpty(lg.TopK(k)),
		Errors:          orEmpty(lg.Errors(n)),
	}
	writeJSON(w, resp)
}

// catalogResponse is the /debug/catalog JSON schema.
type catalogResponse struct {
	Docs []engine.CatalogDoc `json:"docs"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, catalogResponse{Docs: s.e.Catalog()})
}

// planCacheResponse is the /debug/plancache JSON schema; hit/miss totals
// come from the engine's metrics registry.
type planCacheResponse struct {
	Docs      []engine.PlanCacheStat `json:"docs"`
	Hits      int64                  `json:"hits"`
	Misses    int64                  `json:"misses"`
	Evictions int64                  `json:"evictions"`
	HitRatio  float64                `json:"hit_ratio"`
}

func (s *Server) handlePlanCache(w http.ResponseWriter, _ *http.Request) {
	snap := s.e.Registry().Snapshot()
	resp := planCacheResponse{
		Docs:      s.e.PlanCacheStats(),
		Hits:      snap.Counters[engine.MetricPlanCacheHits],
		Misses:    snap.Counters[engine.MetricPlanCacheMisses],
		Evictions: snap.Counters[engine.MetricPlanCacheEvictions],
	}
	if total := resp.Hits + resp.Misses; total > 0 {
		resp.HitRatio = float64(resp.Hits) / float64(total)
	}
	writeJSON(w, resp)
}

// handleReadyz reports ready once the engine serves at least one document
// — before that every query errors, so load balancers should hold traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(s.e.Catalog()) == 0 {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no documents registered")
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// queryInt parses an integer query parameter, falling back to def when
// absent or malformed and clamping to [1, maxLogParam] — a hostile ?n can
// neither dump unbounded views (n ≤ 0 means "all" in the log API) nor
// request absurd copies.
func queryInt(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	n, err := strconv.Atoi(v)
	if v == "" || err != nil {
		n = def
	}
	if n < 1 {
		n = 1
	}
	if n > maxLogParam {
		n = maxLogParam
	}
	return n
}

// orEmpty keeps JSON arrays as [] rather than null for empty views.
func orEmpty(recs []obs.QueryRecord) []obs.QueryRecord {
	if recs == nil {
		return []obs.QueryRecord{}
	}
	return recs
}
