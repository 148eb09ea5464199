package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"xamdb/internal/algebra"
	"xamdb/internal/faultinject"
	"xamdb/internal/physical"
)

// Result is a query's serialized XML answer in a pooled byte buffer. The
// result path writes into it exactly once — batches (or a relation) go
// through the compiled template writer straight into the buffer — and the
// serving layer escapes it onto the socket from there, so no second copy of
// the answer is ever built. The owner calls Release when done with Bytes;
// nothing result-sized stays reachable from the engine afterwards.
type Result struct {
	buf []byte
}

// Bytes returns the serialized answer; valid until Release.
func (r *Result) Bytes() []byte {
	if r == nil {
		return nil
	}
	return r.buf
}

// Release returns the buffer to the pool. The Result and any slice obtained
// from Bytes must not be used afterwards. Releasing a nil Result is a no-op.
func (r *Result) Release() {
	if r == nil {
		return
	}
	resultsLeased.Add(-1)
	if cap(r.buf) > maxPooledResultBytes {
		return // let an outsized buffer go rather than pin it in the pool
	}
	r.buf = r.buf[:0]
	resultPool.Put(r)
}

// maxPooledResultBytes bounds the buffers the pool keeps: an occasional
// huge answer must not stay allocated on behalf of the small ones after it.
const maxPooledResultBytes = 4 << 20

var (
	resultPool = sync.Pool{New: func() any { return new(Result) }}
	// resultsLeased counts Results handed out and not yet released, so the
	// tests can assert every path (served, failed, quota-killed) gives its
	// buffer back.
	resultsLeased atomic.Int64
)

func newResult() *Result {
	resultsLeased.Add(1)
	return resultPool.Get().(*Result)
}

// resultSink feeds one query's rows through its compiled template writer
// into the Result, charging the rows-out quota as it goes: an over-quota
// answer is abandoned mid-write and its buffer discarded, never partially
// returned.
type resultSink struct {
	w      *algebra.ResultWriter
	res    *Result
	budget *physical.Budget
	// rows counts the top-level nodes written — the rows-out quota's unit
	// and the query log's rows_out.
	rows int64
}

// rewind drops everything written after a mark taken as (len, rows): a plan
// that failed mid-stream leaves no trace in the answer of the plan that
// replaces it.
func (s *resultSink) rewind(n int, rows int64) {
	s.res.buf, s.rows = s.res.buf[:n], rows
}

// SiteWriteBatch is the fault-injection site consulted before each batch of
// a streamed answer is written; arming it (with SkipFirst) models a plan
// that fails after part of its output is already in the buffer.
const SiteWriteBatch = "engine.write_batch"

// writeBatch writes a batch's live rows straight from its column vectors.
func (s *resultSink) writeBatch(b *physical.Batch) error {
	if err := faultinject.Check(SiteWriteBatch); err != nil {
		return err
	}
	if len(b.Cols) != s.w.Width() {
		return fmt.Errorf("engine: output shape mismatch: plan yields %d attributes, the query pattern %d", len(b.Cols), s.w.Width())
	}
	buf := s.res.buf
	for i, rows := 0, b.Rows(); i < rows; i++ {
		var (
			n   int
			err error
		)
		buf, n, err = s.w.AppendColumns(buf, b.Cols, b.Row(i))
		if err != nil {
			s.res.buf = buf // keep the grown buffer; the caller rewinds
			return err
		}
		s.rows += int64(n)
	}
	s.res.buf = buf
	return s.budget.CheckRowsOut(s.rows)
}

// writeRelation writes a materialized relation (base scans, multi-pattern
// products, value-join results, the row and logical executors) through the
// same writer, polling the context and the quota every BatchSize rows.
func (s *resultSink) writeRelation(ctx context.Context, rel *algebra.Relation) error {
	if len(rel.Schema.Attrs) != s.w.Width() {
		return fmt.Errorf("engine: output shape mismatch: relation has %d attributes, the template's schema %d", len(rel.Schema.Attrs), s.w.Width())
	}
	buf := s.res.buf
	for i, t := range rel.Tuples {
		if i%physical.BatchSize == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.budget.CheckRowsOut(s.rows); err != nil {
				return err
			}
		}
		var (
			n   int
			err error
		)
		buf, n, err = s.w.AppendTuple(buf, t)
		if err != nil {
			s.res.buf = buf
			return err
		}
		s.rows += int64(n)
	}
	s.res.buf = buf
	return s.budget.CheckRowsOut(s.rows)
}
