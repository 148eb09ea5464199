package main

import (
	"context"
	"fmt"
	"time"

	"xamdb/internal/admission"
	"xamdb/internal/containment"
	"xamdb/internal/obs"
	"xamdb/internal/storage"
	"xamdb/internal/summary"
	"xamdb/internal/xmltree"
	"xamdb/internal/xquery"
)

// admissionProbes is how many no-op tasks time the admission path.
const admissionProbes = 10000

func msSince(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }

// probeLayers times the layers the request path does not expose one call at
// a time — admission hand-off, containment tests, store build/save/load,
// summary build, document parse — directly over the workload's catalog, and
// adds their metrics to m.
func probeLayers(ctx context.Context, w *workload, t *tracer, m map[string]float64) error {
	in := t.in
	// admission: a controller configured as the serving one, running no-ops.
	ctrl := admission.New(admission.Config{Metrics: obs.NewRegistry()})
	doUS := make([]float64, 0, admissionProbes)
	for i := 0; i < admissionProbes; i++ {
		start := time.Now()
		if res := ctrl.Do(ctx, 0, func(context.Context) error { return nil }); res.Err != nil {
			return fmt.Errorf("admission probe: %w", res.Err)
		}
		doUS = append(doUS, float64(time.Since(start))/1e3)
	}
	if err := ctrl.Drain(time.Second); err != nil {
		return fmt.Errorf("admission probe drain: %w", err)
	}
	m["admission.do_us_p50"] = percentile(doUS, 0.50)

	// containment: every (query pattern, view pattern) pair of the catalog.
	var containedUS, modelSizes []float64
	for _, c := range w.classes {
		q, err := xquery.Parse(c.fill(constant(0)))
		if err != nil {
			return fmt.Errorf("containment probe: %w", err)
		}
		ex, err := xquery.Extract(q)
		if err != nil {
			return fmt.Errorf("containment probe: %w", err)
		}
		sd := t.docs[ex.DocNames[0]]
		pat := ex.Patterns[0]
		modelSizes = append(modelSizes, float64(len(containment.CanonicalModel(pat, sd.sum))))
		for _, v := range sd.views {
			start := time.Now()
			if _, err := containment.Contained(pat, v.Pattern, sd.sum); err != nil {
				return fmt.Errorf("containment probe: %w", err)
			}
			containedUS = append(containedUS, float64(time.Since(start))/1e3)
		}
	}
	m["containment.contained_us_p50"] = percentile(containedUS, 0.50)
	m["containment.tests"] = float64(len(containedUS))
	m["containment.canonical_model_size_p50"] = percentile(modelSizes, 0.50)

	// storage, summary, xmltree: summed over the workload's documents.
	var buildMS, saveMS, loadMS, storeBytes, tuples, sumMS, paths, parseMS, nodes float64
	for _, cd := range in.docs {
		start := time.Now()
		s := summary.Build(cd.doc)
		sumMS += msSince(start)
		paths += float64(s.Size())
		nodes += float64(cd.doc.Size())

		text := cd.doc.Serialize()
		start = time.Now()
		if _, err := xmltree.Parse(cd.doc.Name, text); err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
		parseMS += msSince(start)

		if cd.store == nil {
			continue
		}
		buildMS += float64(cd.buildNS) / 1e6
		tuples += float64(cd.store.TotalTuples())
		start = time.Now()
		data, err := storage.StoreBytes(cd.store)
		if err != nil {
			return fmt.Errorf("store save probe: %w", err)
		}
		saveMS += msSince(start)
		storeBytes += float64(len(data))
		start = time.Now()
		if _, err := storage.LoadStoreBytes(data); err != nil {
			return fmt.Errorf("store load probe: %w", err)
		}
		loadMS += msSince(start)
	}
	m["storage.build_ms"] = buildMS
	m["storage.save_ms"] = saveMS
	m["storage.load_ms"] = loadMS
	m["storage.bytes"] = storeBytes
	m["storage.tuples"] = tuples
	m["summary.build_ms"] = sumMS
	m["summary.paths"] = paths
	m["xmltree.parse_ms"] = parseMS
	m["xmltree.nodes"] = nodes
	return nil
}
