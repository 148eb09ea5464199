// Command benchmark is the repository's one benchmark: it serves an engine
// as `uload -serve` does, drives POST /query over loopback HTTP in a closed
// loop, checks every answer against direct evaluation, and prints the
// metrics BENCHMARK.json lists — end to end with tracing off, or per layer
// from a separate traced run. See README.md beside this file.
//
//	go run ./benchmark -workload warm_point -seed 1
//	go run ./benchmark -workload all -seed 1 -json a.jsonl
//	go run ./benchmark -workload cold_plan -seed 1 -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef and manifest mirror BENCHMARK.json, the one place that names
// workloads and metrics; the program runs and prints nothing it does not
// list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	dir string // the checkout root, where BENCHMARK.json lies
}

// loadManifest finds BENCHMARK.json in the working directory (how the
// benchmark is run) or its parent (how `go test` runs the package).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m := &manifest{dir: dir}
		if err := json.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return m, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", firstErr)
}

func (m *manifest) lists(workload string) bool {
	for _, w := range m.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// report prints the metrics in manifest order as "name value unit" lines and
// then the one-line JSON object a harness reads. A measured name the
// manifest does not list, or a listed one not measured, is an error.
func report(out io.Writer, defs []metricDef, res *result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", d.Name)
		}
		metrics[d.Name] = mv{v, d.Unit}
		fmt.Fprintf(out, "%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range res.Metrics {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("metric %s was measured but is not listed in BENCHMARK.json", name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runRecord is one line of a -json results file.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// errWorse makes -compare exit 1 after it has printed its table.
var errWorse = errors.New("at least one metric is worse than its bound allows")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: a name from BENCHMARK.json, or all (one fresh process each)")
		seed    = fs.Int64("seed", 1, "seed of the request stream (order, constants)")
		seconds = fs.Float64("seconds", 0, "measured window of an end-to-end run (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics from a fixed request count, spans written to benchmark/out/")
		jsonOut = fs.String("json", "", "append this run's metrics as one JSON line to the file (input of -compare)")
		compare = fs.Bool("compare", false, "compare two -json files given as arguments; exit 1 if any metric is worse than its bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(out, m, fs.Arg(0), fs.Arg(1))
	}
	if *name == "all" {
		return runAll(m, args)
	}
	w := workloadByName(*name)
	if w == nil || !m.lists(*name) {
		return fmt.Errorf("workload %q is not listed in BENCHMARK.json", *name)
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{w: w, seed: *seed, seconds: *seconds, warmup: defaultWarmup, div: 1, log: os.Stderr}
	var (
		res  *result
		defs = m.EndToEnd
	)
	if *trace != 0 {
		defs = m.PerLayer
		cfg.traceOut = func(file string) (io.WriteCloser, error) {
			dir := filepath.Join(m.dir, "benchmark", "out")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			return os.Create(filepath.Join(dir, file))
		}
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runEndToEnd(ctx, cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(out, "workload %s seed %d: %d requests, %d failed, %d toggles, %d clients\n",
		w.name, *seed, res.Attempted, res.Failed, res.Toggles, clientCount())
	for _, c := range res.Classes {
		fmt.Fprintf(out, "  class %5.1f%%  p50 %9.3f ms  %s\n", 100*float64(c.Count)/float64(res.Attempted-res.Failed), c.P50MS, c.Query)
	}
	for _, st := range res.Stages {
		fmt.Fprintf(out, "  stage %5.1f%%  self %10.3f ms  %s\n", 100*st.Share, st.SelfMS, st.Name)
	}
	if *jsonOut != "" {
		rec := runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Failed: res.Failed, Metrics: res.Metrics}
		if err := appendRecord(*jsonOut, rec); err != nil {
			return err
		}
	}
	return report(out, defs, res)
}

// runAll runs every listed workload in a fresh process of this same binary,
// so no workload inherits another's heap, caches or scheduler state.
func runAll(m *manifest, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	for _, w := range m.Workloads {
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}
