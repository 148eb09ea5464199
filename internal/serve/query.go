package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"xamdb/internal/admission"
	"xamdb/internal/engine"
	"xamdb/internal/obs"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// whose client went away mid-execution; the write usually fails anyway, but
// logs and tests see an honest status.
const StatusClientClosedRequest = 499

// queryRequest is the POST /query body.
type queryRequest struct {
	// Query is the XQuery text (required).
	Query string `json:"query"`
	// TimeoutMS is the client's deadline hint in milliseconds; clamped to
	// the server's MaxDeadline. 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Explain plans without executing; Analyze executes with per-operator
	// instrumentation (EXPLAIN ANALYZE). Explain wins when both are set.
	Explain bool `json:"explain,omitempty"`
	Analyze bool `json:"analyze,omitempty"`
}

// queryResponse is the POST /query response. Outcome uses the admission
// wire names; RetryAfterS mirrors the Retry-After header on 429/503. The
// server writes it with writeQueryResponse — compact, result last and taken
// from the engine's buffer rather than from Result — so the struct doubles
// as the schema clients (and the tests) decode into.
type queryResponse struct {
	Outcome      string   `json:"outcome"`
	Result       string   `json:"result,omitempty"`
	Plans        []string `json:"plans,omitempty"`
	Patterns     []string `json:"patterns,omitempty"`
	Degradations int      `json:"degradations,omitempty"`
	Analyze      string   `json:"analyze,omitempty"`
	Error        string   `json:"error,omitempty"`
	QueueWaitNS  int64    `json:"queue_wait_ns"`
	DurationNS   int64    `json:"duration_ns"`
	RetryAfterS  int      `json:"retry_after_s,omitempty"`
}

// handleQuery is the production query path: decode (body capped), admit
// through the controller, execute, map the admission outcome to an HTTP
// status. Every request gets exactly one response and exactly one account:
// 200 served, 400 malformed, 413 oversized, 422 failed or quota-killed,
// 429 shed (Retry-After set), 499 client gone, 503 draining or no
// controller (Retry-After set), 504 deadline.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.ctrl == nil {
		w.Header().Set("Retry-After", "60")
		http.Error(w, "query path not enabled", http.StatusServiceUnavailable)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxQueryBodyBytes)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body over limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Query == "" {
		http.Error(w, `missing "query"`, http.StatusBadRequest)
		return
	}

	var (
		out    *engine.Result
		rep    *engine.Report
		start  = time.Now()
		runFn  func(ctx context.Context) error
		isExpl = req.Explain
	)
	switch {
	case isExpl:
		runFn = func(ctx context.Context) error {
			var err error
			rep, err = s.e.ExplainContext(ctx, req.Query)
			return err
		}
	case req.Analyze:
		runFn = func(ctx context.Context) error {
			var err error
			out, rep, err = s.e.AnalyzeResult(ctx, req.Query)
			return err
		}
	default:
		runFn = func(ctx context.Context) error {
			var err error
			out, rep, err = s.e.QueryResult(ctx, req.Query)
			return err
		}
	}
	res := s.ctrl.Do(r.Context(), time.Duration(req.TimeoutMS)*time.Millisecond, runFn)
	defer out.Release() // nil unless the query was served
	if !res.Ran {
		// The engine never saw the query: record the shed/cancel here so the
		// query log accounts every request, same as the admission counters.
		s.logShed(req.Query, start, res)
	}

	resp := queryResponse{
		Outcome:     res.Outcome.String(),
		QueueWaitNS: int64(res.QueueWait),
		DurationNS:  int64(time.Since(start)),
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	if rep != nil {
		resp.Plans = rep.Plans
		resp.Patterns = rep.Patterns
		resp.Degradations = len(rep.Degradations)
		if req.Analyze && !isExpl {
			resp.Analyze = rep.AnalyzeString()
		}
	}
	var result []byte
	status := http.StatusOK
	switch res.Outcome {
	case admission.OutcomeServed:
		result = out.Bytes()
	case admission.OutcomeErrored, admission.OutcomeQuotaKilled:
		status = http.StatusUnprocessableEntity
	case admission.OutcomeDeadline:
		status = http.StatusGatewayTimeout
	case admission.OutcomeCancelled:
		status = StatusClientClosedRequest
	case admission.OutcomeShedQueueFull, admission.OutcomeShedQueueTimeout:
		status = http.StatusTooManyRequests
		resp.RetryAfterS = s.ctrl.RetryAfter()
	case admission.OutcomeShedDraining:
		status = http.StatusServiceUnavailable
		resp.RetryAfterS = s.ctrl.RetryAfter()
	default:
		status = http.StatusInternalServerError
	}
	if resp.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is out; a failed write means the client went away.
	_ = writeQueryResponse(w, &resp, result)
}

// logShed records a request the admission layer rejected (or that was
// cancelled while queued) in the engine's query log and workload table, so
// both — like the admission counters — account every request, not just the
// ones that ran.
func (s *Server) logShed(query string, start time.Time, res admission.Result) {
	if s.e.QueryLog == nil && s.e.Workload == nil {
		return
	}
	if len(query) > 256 {
		query = query[:256] + "…"
	}
	rec := obs.QueryRecord{
		TimeUnixNS:  start.UnixNano(),
		Fingerprint: "shed",
		Query:       query,
		Outcome:     res.Outcome.String(),
		DurationNS:  int64(res.QueueWait),
	}
	if res.Err != nil {
		rec.Error = res.Err.Error()
	}
	s.e.Workload.Observe(rec)
	s.e.QueryLog.Record(rec)
}

// admissionResponse is the /debug/admission JSON schema.
type admissionResponse struct {
	Enabled bool             `json:"enabled"`
	Stats   *admission.Stats `json:"stats,omitempty"`
	Config  *admissionConfig `json:"config,omitempty"`
}

// admissionConfig is the exported subset of the controller configuration.
type admissionConfig struct {
	Workers           int   `json:"workers"`
	QueueDepth        int   `json:"queue_depth"`
	QueueTimeoutMS    int64 `json:"queue_timeout_ms"`
	DefaultDeadlineMS int64 `json:"default_deadline_ms"`
	MaxDeadlineMS     int64 `json:"max_deadline_ms"`
	MaxRowsOut        int64 `json:"max_rows_out,omitempty"`
	MaxExtentBytes    int64 `json:"max_extent_bytes,omitempty"`
	MaxTuples         int64 `json:"max_tuples,omitempty"`
	DrainTimeoutMS    int64 `json:"drain_timeout_ms"`
}

func (s *Server) handleAdmission(w http.ResponseWriter, _ *http.Request) {
	if s.ctrl == nil {
		writeJSON(w, admissionResponse{Enabled: false})
		return
	}
	st := s.ctrl.Stats()
	cfg := s.ctrl.Config()
	writeJSON(w, admissionResponse{
		Enabled: true,
		Stats:   &st,
		Config: &admissionConfig{
			Workers:           cfg.Workers,
			QueueDepth:        cfg.QueueDepth,
			QueueTimeoutMS:    cfg.QueueTimeout.Milliseconds(),
			DefaultDeadlineMS: cfg.DefaultDeadline.Milliseconds(),
			MaxDeadlineMS:     cfg.MaxDeadline.Milliseconds(),
			MaxRowsOut:        cfg.MaxRowsOut,
			MaxExtentBytes:    cfg.MaxExtentBytes,
			MaxTuples:         cfg.MaxTuples,
			DrainTimeoutMS:    cfg.DrainTimeout.Milliseconds(),
		},
	})
}
