package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
	"time"
)

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// TestSmoke runs every listed workload at a tenth of its document scale for
// one second, then a 50-request traced pass, and checks what must hold at
// any scale: every listed metric is emitted and no other, nothing fails,
// nothing is shed, the plan-cache regimes are the intended ones, and the
// spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real HTTP for several seconds")
	}
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program defines %d", len(m.Workloads), len(workloads))
	}
	ctx := context.Background()
	for _, mw := range m.Workloads {
		t.Run(mw.Name, func(t *testing.T) {
			w := workloadByName(mw.Name)
			if w == nil {
				t.Fatalf("workload %s is listed but not defined", mw.Name)
			}
			if len(w.classes) > maxClasses {
				t.Fatalf("%d classes, BENCHMARK.json has %d class slots", len(w.classes), maxClasses)
			}
			var spanFile bytes.Buffer
			cfg := config{w: w, seed: 1, seconds: 1, warmup: 200 * time.Millisecond, div: 10,
				tracedRequests: 50, log: io.Discard,
				traceOut: func(string) (io.WriteCloser, error) { return nopCloser{&spanFile}, nil }}

			if w.churn != nil {
				// enough draws for the traced pass to meet a toggle
				cfg.tracedRequests = w.churn.every + 20
			}

			res, err := runEndToEnd(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := report(io.Discard, m.EndToEnd, res); err != nil {
				t.Error(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("end to end: %d of %d requests failed", res.Failed, res.Attempted)
			}
			for _, d := range m.EndToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}

			tr, err := runTraced(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := report(io.Discard, m.PerLayer, tr); err != nil {
				t.Error(err)
			}
			if tr.Failed != 0 {
				t.Errorf("traced: %d of %d requests failed", tr.Failed, tr.Attempted)
			}
			if v := tr.Metrics["admission.shed"]; v != 0 {
				t.Errorf("admission.shed = %v, want 0", v)
			}
			// The nest join is the one plan node without a batch form: each
			// request of such a class falls back exactly once, no other does.
			nest := 0
			for i, c := range w.classes {
				if c.nest {
					nest += tr.Classes[i].Count
				}
			}
			for _, name := range []string{"engine.batch_fallbacks", "physical.fallbacks"} {
				if v := tr.Metrics[name]; v != float64(nest) {
					t.Errorf("%s = %v, want %d (one per nest-join request)", name, v, nest)
				}
			}
			hit := tr.Metrics["engine.plan_cache_hit_ratio"]
			switch w.name {
			case "warm_point", "bulk_exec":
				if hit < 0.99 {
					t.Errorf("plan_cache_hit_ratio = %v, want >= 0.99", hit)
				}
				if v := tr.Metrics["rewrite.searches"]; v != 0 {
					t.Errorf("rewrite.searches = %v after warm-up, want 0", v)
				}
			case "cold_plan":
				if hit > 0.05 {
					t.Errorf("plan_cache_hit_ratio = %v, want <= 0.05", hit)
				}
			case "view_churn":
				if tr.Toggles == 0 || tr.Metrics["engine.register_view_us_p50"] <= 0 {
					t.Errorf("toggles = %d, register_view_us_p50 = %v: the pass saw no toggle",
						tr.Toggles, tr.Metrics["engine.register_view_us_p50"])
				}
			}
			checkSpans(t, spanFile.Bytes())
		})
	}
}

// checkSpans asserts that every span carries a request and a parent, lies
// inside its parent, and that a root's stages sum to no more than the root.
func checkSpans(t *testing.T, data []byte) {
	t.Helper()
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("span file holds no spans")
	}
	for i, s := range file.Spans {
		if s.ID != i+1 || s.Request <= 0 || s.EndNS < s.StartNS {
			t.Fatalf("span %+v: bad id, request or interval", s)
		}
		if s.Parent == 0 {
			if s.Name != spRequest && s.Name != spToggle {
				t.Errorf("span %+v has no parent but is not a root", s)
			}
			continue
		}
		p := file.Spans[s.Parent-1]
		if p.Request != s.Request || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %+v does not lie inside its parent %+v", s, p)
		}
	}
	for i, self := range selfTimes(file.Spans) {
		if self < 0 {
			t.Errorf("children of span %+v outlast it by %d ns", file.Spans[i], -self)
		}
	}
}
