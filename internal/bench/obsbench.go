package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"xamdb/internal/engine"
	"xamdb/internal/obs"
	"xamdb/internal/physical"
	"xamdb/internal/storage"
)

// ObsConfig sizes the observability benchmark. The zero value is the CI
// smoke configuration.
type ObsConfig struct {
	Iters      int // repetitions per query (default 3)
	Goroutines int // concurrent workers for the throughput section (default 4)
}

func (c ObsConfig) withDefaults() ObsConfig {
	if c.Iters <= 0 {
		c.Iters = 3
	}
	if c.Goroutines <= 0 {
		c.Goroutines = 4
	}
	return c
}

// ObsQueryRow is one workload query's latency summary in the BENCH JSON.
type ObsQueryRow struct {
	Query string `json:"query"`
	Plan  string `json:"plan"`
	Iters int    `json:"iters"`
	AvgNS int64  `json:"avg_ns"`
	MinNS int64  `json:"min_ns"`
	MaxNS int64  `json:"max_ns"`
}

// ObsConcurrency is the concurrent-throughput section of the BENCH JSON.
type ObsConcurrency struct {
	Goroutines int     `json:"goroutines"`
	Queries    int     `json:"queries"`
	ElapsedNS  int64   `json:"elapsed_ns"`
	QPS        float64 `json:"qps"`
}

// ObsOverhead quantifies the monitoring tax: warm p50 latency of the same
// query on an engine with the query log disabled versus one with the query
// log enabled while a background scraper renders the Prometheus exposition.
// The acceptance bar for the serving layer is OverheadPct <= 5.
type ObsOverhead struct {
	Samples        int     `json:"samples"`
	BaselineP50NS  int64   `json:"baseline_p50_ns"`
	MonitoredP50NS int64   `json:"monitored_p50_ns"`
	OverheadPct    float64 `json:"overhead_pct"`
}

// ObsReport is the xambench observability export — the engine's bench JSON
// trajectory (BENCH_*.json): per-query latencies, one EXPLAIN ANALYZE
// operator tree, one query trace, a concurrent-throughput measurement, the
// query-log/scrape overhead comparison, and the full engine metrics
// snapshot. Schema documented in DESIGN.md "Observability".
type ObsReport struct {
	Experiment  string            `json:"experiment"`
	Dataset     string            `json:"dataset"`
	Store       string            `json:"store"`
	Queries     []ObsQueryRow     `json:"queries"`
	Analyze     *physical.OpStats `json:"explain_analyze"`
	Trace       json.RawMessage   `json:"trace"`
	Concurrency ObsConcurrency    `json:"concurrency"`
	Overhead    *ObsOverhead      `json:"overhead"`
	Metrics     *obs.Snapshot     `json:"metrics"`
}

// obsWorkload is the query mix driven over the DBLP stand-in.
var obsWorkload = []string{
	`doc("dblp.xml")//article/title`,
	`doc("dblp.xml")//article/author`,
	`for $x in doc("dblp.xml")//article where $x/year = "1999" return <r>{$x/title}</r>`,
	`doc("dblp.xml")//book/title`,
}

// obsViews are content-bearing XAMs answering the workload's title/author
// lookups by rewriting; the tag-partitioned store's {id, val} modules cannot
// serve the serialized-content ({cont}) attribute those patterns ask for, so
// without these every workload query would take the base-scan path and the
// benchmark would never exercise the rewrite/materialize/execute spans.
// The article views carry structural IDs and v_article_year stores the year
// value, so the predicate query (year = "1999") is answered by absorbing the
// predicate into a view selection and nest-joining titles — the whole
// workload runs with engine.base_scans == 0 (asserted by the bench test).
var obsViews = map[string]string{
	"v_article_title":  `// article{id s}(/ title{cont})`,
	"v_article_author": `// article{id s}(/ author{cont})`,
	"v_book_title":     `// book(/ title{cont})`,
	"v_article_year":   `// article{id s}(/ year{id s, val})`,
	"v_title":          `// title{id s, cont}`,
}

// QueryObservability measures the engine's query path end to end: it loads
// the DBLP dataset with a tag-partitioned store plus the content views, runs
// the workload repeatedly (recording per-query latency and the chosen
// plans), captures one EXPLAIN ANALYZE tree and one trace, then drives the
// workload from cfg.Goroutines workers for the throughput row, and finally
// snapshots the engine metrics registry.
func QueryObservability(ctx context.Context, cfg ObsConfig) (*ObsReport, error) {
	cfg = cfg.withDefaults()
	e, dataset, store, err := newObsEngine()
	if err != nil {
		return nil, err
	}
	rep := &ObsReport{
		Experiment: "observability",
		Dataset:    dataset,
		Store:      store,
	}

	for _, q := range obsWorkload {
		row := ObsQueryRow{Query: q, Iters: cfg.Iters, MinNS: int64(^uint64(0) >> 1)}
		var sum int64
		for i := 0; i < cfg.Iters; i++ {
			start := time.Now()
			_, qrep, err := e.QueryContext(ctx, q)
			lat := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("bench: query %q: %w", q, err)
			}
			sum += lat
			if lat < row.MinNS {
				row.MinNS = lat
			}
			if lat > row.MaxNS {
				row.MaxNS = lat
			}
			if i == 0 && len(qrep.Plans) > 0 {
				row.Plan = qrep.Plans[0]
			}
		}
		row.AvgNS = sum / int64(cfg.Iters)
		rep.Queries = append(rep.Queries, row)
	}

	// One EXPLAIN ANALYZE tree and one trace for the first workload query.
	_, arep, err := e.AnalyzeContext(ctx, obsWorkload[0])
	if err != nil {
		return nil, err
	}
	if len(arep.Ops) > 0 {
		rep.Analyze = arep.Ops[0]
	}
	if arep.Trace != nil {
		data, err := arep.Trace.JSON()
		if err != nil {
			return nil, err
		}
		rep.Trace = data
	}

	// Concurrent throughput: every worker runs the whole workload Iters
	// times against the shared engine.
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Goroutines)
	total := cfg.Goroutines * cfg.Iters * len(obsWorkload)
	start := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.Iters; i++ {
				for _, q := range obsWorkload {
					if _, _, err := e.QueryContext(ctx, q); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, fmt.Errorf("bench: concurrent workload: %w", err)
	}
	elapsed := time.Since(start)
	rep.Concurrency = ObsConcurrency{
		Goroutines: cfg.Goroutines,
		Queries:    total,
		ElapsedNS:  elapsed.Nanoseconds(),
		QPS:        float64(total) / elapsed.Seconds(),
	}
	rep.Overhead, err = measureOverhead(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep.Metrics = e.Metrics.Snapshot()
	return rep, nil
}

// newObsEngine builds the benchmark fixture: the DBLP stand-in over a
// tag-partitioned store plus the content views.
func newObsEngine() (*engine.Engine, string, string, error) {
	d := DBLPDataset()
	e := engine.New()
	e.AddDocument(d.Doc)
	st, err := storage.TagPartitioned(d.Doc)
	if err != nil {
		return nil, "", "", err
	}
	if err := e.RegisterStore(d.Doc.Name, st); err != nil {
		return nil, "", "", err
	}
	for name, pat := range obsViews {
		if err := e.RegisterView(d.Doc.Name, name, pat); err != nil {
			return nil, "", "", err
		}
	}
	return e, d.Name, st.Name, nil
}

// measureOverhead compares warm p50 latencies of the first workload query on
// two fresh engines: a baseline with the query log disabled, and a monitored
// one with the default query log plus a background scraper that repeatedly
// syncs the state gauges and renders the Prometheus exposition — the worst
// realistic monitoring pressure a live deployment sees.
func measureOverhead(ctx context.Context, cfg ObsConfig) (*ObsOverhead, error) {
	samples := cfg.Iters * 200
	q := obsWorkload[0]
	p50 := func(e *engine.Engine) (int64, error) {
		for i := 0; i < 5; i++ { // warm: materialize views, fill the plan cache
			if _, _, err := e.QueryContext(ctx, q); err != nil {
				return 0, err
			}
		}
		lats := make([]int64, samples)
		for i := range lats {
			start := time.Now()
			if _, _, err := e.QueryContext(ctx, q); err != nil {
				return 0, err
			}
			lats[i] = time.Since(start).Nanoseconds()
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)/2], nil
	}

	base, _, _, err := newObsEngine()
	if err != nil {
		return nil, err
	}
	base.QueryLog = nil
	baseP50, err := p50(base)
	if err != nil {
		return nil, fmt.Errorf("bench: overhead baseline: %w", err)
	}

	mon, _, _, err := newObsEngine()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = mon.Registry().Snapshot().WriteProm(io.Discard)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	monP50, err := p50(mon)
	close(stop)
	swg.Wait()
	if err != nil {
		return nil, fmt.Errorf("bench: overhead monitored: %w", err)
	}

	oh := &ObsOverhead{Samples: samples, BaselineP50NS: baseP50, MonitoredP50NS: monP50}
	if baseP50 > 0 {
		oh.OverheadPct = 100 * float64(monP50-baseP50) / float64(baseP50)
	}
	return oh, nil
}

// WriteJSON writes the report as indented JSON (the BENCH_*.json format).
func (r *ObsReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
