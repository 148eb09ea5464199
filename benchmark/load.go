package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Phases of an end-to-end run. Set-up is repeated so that setup_s is a
// median; the last instance built is the one measured.
const (
	setupRepeats  = 3
	defaultWarmup = 2 * time.Second
)

// config is one invocation's parameters.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	warmup  time.Duration
	// div shrinks the documents (1 = full size; the smoke test uses 10).
	div int
	// tracedRequests overrides the workload's traced-pass count when > 0.
	tracedRequests int
	// traceOut receives the span file of a traced run; nil discards it.
	traceOut func(name string) (io.WriteCloser, error)
	log      io.Writer
}

// result is what one run reports: the contract's four keys, plus counts a
// reader wants beside the metrics.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Classes is each class's count of correct requests with its p50,
	// printed so that p50/p95 can be placed inside a class.
	Classes []classStat
	Toggles int
	// Stages is filled by a traced run: each span name's share of the
	// stitched requests' time.
	Stages []stageStat
}

type classStat struct {
	Query string
	Count int
	P50MS float64
}

type sample struct {
	class int
	ns    int64
	ok    bool
}

// drive runs the closed loop for d and then to the stream's next boundary:
// each client draws its next request only when its previous reply has been
// read. It returns the samples and the clients' summed request rates (each
// over its own elapsed time, since they stop a request apart). Toggles go
// straight to the engine (there is no HTTP surface for registration); they
// are counted, not timed as requests.
func drive(ctx context.Context, cfg config, in *instance, or oracle, st *stream, d time.Duration) (all []sample, toggles int, qps float64, first error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	st.setDeadline(start.Add(d))
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			myToggles, good := 0, 0
			var err error
			for ctx.Err() == nil {
				rq, more := st.next()
				if !more {
					break
				}
				if rq.toggle {
					if _, err = in.toggle(cfg.w.churn); err != nil {
						break
					}
					myToggles++
					continue
				}
				rep, perr := in.post(ctx, rq.query)
				ok := perr == nil && or.verify(rq.query, rep)
				if ok {
					good++
				} else {
					fmt.Fprintf(cfg.log, "FAILED %s: status=%d outcome=%q err=%v\n", rq.query, rep.status, rep.body.Outcome, perr)
				}
				mine = append(mine, sample{class: rq.class, ns: int64(rep.rtt), ok: ok})
			}
			elapsed := time.Since(start).Seconds()
			mu.Lock()
			defer mu.Unlock()
			all = append(all, mine...)
			toggles += myToggles
			qps += float64(good) / elapsed
			if err != nil && first == nil {
				first = err
			}
		}()
	}
	wg.Wait()
	return all, toggles, qps, first
}

// toggle flips the churn view: registered → dropped → registered … and
// reports which way it went.
func (in *instance) toggle(ch *churn) (registered bool, err error) {
	in.churnMu.Lock()
	defer in.churnMu.Unlock()
	if in.churnOn {
		if err := in.e.DropView(ch.doc, ch.view.name); err != nil {
			return false, fmt.Errorf("drop %s: %w", ch.view.name, err)
		}
	} else if err := in.e.RegisterView(ch.doc, ch.view.name, ch.view.xam); err != nil {
		return false, fmt.Errorf("register %s: %w", ch.view.name, err)
	}
	in.churnOn = !in.churnOn
	return in.churnOn, nil
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// runEndToEnd measures one workload with tracing off: set-up (repeated),
// warm-up, then the measured window.
func runEndToEnd(ctx context.Context, cfg config) (*result, error) {
	var (
		in     *instance
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			if err := in.stop(); err != nil {
				return nil, fmt.Errorf("stop instance: %w", err)
			}
		}
		start := time.Now()
		next, err := newInstance(ctx, cfg.w, cfg.div)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		in = next
	}
	defer func() { _ = in.stop() }() // errors on the measured path are returned below
	or, err := newOracle(cfg.w, in)
	if err != nil {
		return nil, err
	}

	st := newStream(cfg.w, cfg.seed)
	if _, _, _, err := drive(ctx, cfg, in, or, st, cfg.warmup); err != nil {
		return nil, err
	}

	// Two collections: the first frees the earlier instances and the
	// warm-up's garbage, the second what finalizers released.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	samples, toggles, qps, err := drive(ctx, cfg, in, or, st, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if len(samples) == 0 {
		return nil, fmt.Errorf("no request completed in %.1fs", cfg.seconds)
	}
	if st := in.ctrl.Stats(); st.ShedQueueFull+st.ShedQueueTimeout+st.ShedDraining > 0 {
		fmt.Fprintf(cfg.log, "admission shed requests: %+v\n", st)
	}

	var lat []float64
	good := 0
	perClass := make([][]float64, len(cfg.w.classes))
	for _, s := range samples {
		if !s.ok {
			continue // a failed request has no latency to credit
		}
		good++
		ms := float64(s.ns) / 1e6
		lat = append(lat, ms)
		perClass[s.class] = append(perClass[s.class], ms)
	}
	res := &result{
		Correct:   good == len(samples),
		Attempted: len(samples),
		Failed:    len(samples) - good,
		Toggles:   toggles,
	}
	if good == 0 {
		return res, fmt.Errorf("all %d requests failed", len(samples))
	}
	for i, c := range cfg.w.classes {
		res.Classes = append(res.Classes, classStat{
			Query: c.query,
			Count: len(perClass[i]),
			P50MS: percentile(perClass[i], 0.50),
		})
	}

	var docBytes int
	for _, cd := range in.docs {
		docBytes += len(cd.doc.Serialize())
	}
	var saved countingWriter
	if err := in.e.Save(&saved); err != nil {
		return nil, fmt.Errorf("save catalog: %w", err)
	}
	requests := float64(len(samples))
	res.Metrics = map[string]float64{
		"latency_p50_ms":             percentile(lat, 0.50),
		"latency_p95_ms":             percentile(lat, 0.95),
		"throughput_qps":             qps,
		"cpu_ms_per_req":             float64(cpu1-cpu0) / 1e6 / requests,
		"alloc_kb_per_req":           float64(after.TotalAlloc-before.TotalAlloc) / 1024 / requests,
		"live_heap_mb":               float64(before.HeapAlloc) / (1 << 20),
		"catalog_bytes_per_doc_byte": float64(saved) / float64(docBytes),
		"setup_s":                    median(setups),
	}
	return res, nil
}

// countingWriter counts what engine.Save (the bytes SaveFile writes) emits
// without touching the disk.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
