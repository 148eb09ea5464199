package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the end-to-end runs of a -json file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// ratio b/a with a as its base, and a verdict against the metric's bound:
// worse when b's median is worse than a's by more than the bound; unresolved
// when it is not but either side's run-to-run spread is wider than the
// bound, so "no worse" cannot be told; ok otherwise. Comparing two sets of
// runs of one commit is the benchmark's A/A self-check.
func compareFiles(out io.Writer, m *manifest, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %-28s %12s %12s %9s %8s %8s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict")
	worse := false
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-12s %-28s missing from one side\n", w.Name, d.Name)
				worse = true
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			loss := ratio - 1 // how much worse b is, as a share of a
			if d.Better == "higher" {
				loss = 1 - ratio
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case loss > d.Bound:
				verdict = "worse"
				worse = true
			case sp > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-12s %-28s %12.6g %12.6g %9.4f %7.2f%% %7.2f%%  %s (n=%d/%d)\n",
				w.Name, d.Name, ma, mb, ratio, 100*sp, 100*d.Bound, verdict, len(va), len(vb))
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
