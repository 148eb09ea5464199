package physical

import (
	"context"
	"fmt"
	"sort"

	"xamdb/internal/algebra"
	"xamdb/internal/value"
)

// This file is the batch half of the physical layer (ROADMAP item 3):
// instead of pulling one tuple per virtual call, operators exchange batches
// of ~BatchSize rows represented as column vectors plus a selection. A
// batch leaf polls its context and charges the Budget once per batch — the
// same cancellation/quota protocol as the row path's Checkpoint, at 1/64th
// of the poll density but bounded by the same interval guarantees (a batch
// is at most BatchSize rows). Operators without a batch form fall back to
// the row engine through the Rebatch/Unbatch adapters.

// BatchSize is the target number of rows per batch: large enough to
// amortize per-batch overheads, small enough to stay cache-resident.
const BatchSize = 1024

// Batch is one unit of batch execution: column vectors over a schema plus
// an ordered selection of live rows. Cols[j] holds N physical rows of
// attribute j (usually zero-copy windows over an extent's columns); Sel,
// when non-nil, lists the live physical row indexes in output order. A nil
// Sel means all N rows are live in order. Batches and their columns are
// read-only once handed downstream.
type Batch struct {
	Schema *algebra.Schema
	Cols   [][]algebra.Value
	Sel    []int
	N      int
}

// Rows returns the number of live rows.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Row maps live-row position i to the physical row index.
func (b *Batch) Row(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// Tuple materializes live row i as a row-major tuple (adapter and drain
// paths; batch operators read columns directly).
func (b *Batch) Tuple(i int) algebra.Tuple {
	r := b.Row(i)
	t := make(algebra.Tuple, len(b.Cols))
	for j := range b.Cols {
		t[j] = b.Cols[j][r]
	}
	return t
}

// BatchIterator is the batch counterpart of Iterator: NextBatch returns the
// next non-empty batch and false when exhausted. Order declares the output
// order of the live-row sequence across batches, exactly as Iterator.Order
// does for tuples.
type BatchIterator interface {
	Schema() *algebra.Schema
	Order() algebra.OrderDesc
	NextBatch() (*Batch, bool)
}

// batchCancelCheck polls ctx and charges n tuples against the budget,
// unwinding through the Cancelled panic protocol exactly like Checkpoint.
func batchCancelCheck(ctx context.Context, budget *Budget, n int64) {
	if err := ctx.Err(); err != nil {
		//xamlint:allow nopanic(cancellation protocol: typed panic unwinds the iterator tree and is recovered by EachBatchContext)
		panic(&Cancelled{Err: err})
	}
	if err := budget.ChargeTuples(n); err != nil {
		//xamlint:allow nopanic(cancellation protocol: quota kill unwinds like a deadline and is recovered by EachBatchContext)
		panic(&Cancelled{Err: err})
	}
}

// BatchScan is the batch leaf over a materialized relation: each NextBatch
// slices the next BatchSize-row window of the relation's column vectors —
// zero copies — after polling the context and charging the budget for the
// window. It is the batch counterpart of Checkpoint(Scan).
type BatchScan struct {
	cols   *algebra.Columns
	order  algebra.OrderDesc
	ctx    context.Context
	budget *Budget
	charge bool
	pos    int
	polls  int
}

// NewBatchScan builds a charging batch scan over an extent; every extent
// leaf charges the tuple quota per batch, mirroring the row path's
// Checkpoint-wrapped scans.
func NewBatchScan(ctx context.Context, rel *algebra.Relation, order algebra.OrderDesc) *BatchScan {
	return &BatchScan{cols: rel.Columns(), order: order, ctx: ctx, budget: BudgetFrom(ctx), charge: true}
}

// NewBatchRelScan builds a batch scan over a derived (already materialized
// and already charged-for) relation: it polls the context per batch but
// does not re-charge the tuple quota, mirroring the row compiler's
// un-checkpointed rescans of intermediate results.
func NewBatchRelScan(ctx context.Context, rel *algebra.Relation, order algebra.OrderDesc) *BatchScan {
	return &BatchScan{cols: rel.Columns(), order: order, ctx: ctx, budget: BudgetFrom(ctx)}
}

// Schema implements BatchIterator.
func (s *BatchScan) Schema() *algebra.Schema { return s.cols.Schema }

// Order implements BatchIterator.
func (s *BatchScan) Order() algebra.OrderDesc { return s.order }

// Polls reports the context checks run, for EXPLAIN ANALYZE.
func (s *BatchScan) Polls() int { return s.polls }

// NextBatch implements BatchIterator.
func (s *BatchScan) NextBatch() (*Batch, bool) {
	if s.pos >= s.cols.NRows {
		return nil, false
	}
	end := s.pos + BatchSize
	if end > s.cols.NRows {
		end = s.cols.NRows
	}
	n := end - s.pos
	s.polls++
	if s.charge {
		batchCancelCheck(s.ctx, s.budget, int64(n))
	} else {
		batchCancelCheck(s.ctx, nil, 0)
	}
	cols := make([][]algebra.Value, len(s.cols.Cols))
	for j := range cols {
		cols[j] = s.cols.Cols[j][s.pos:end]
	}
	s.pos = end
	return &Batch{Schema: s.cols.Schema, Cols: cols, N: n}, true
}

// BatchFormulaScan is the batch counterpart of FormulaSelect: a scan over a
// view extent fused with a σ_φ filter on one value column. It evaluates the
// compiled formula against the extent's cached atom column — the per-row
// string parse happens once per extent, not once per query — and emits
// windows with a selection of the matching rows. Like FormulaSelect it is a
// self-checkpointing leaf: one poll and one budget charge per examined
// window.
type BatchFormulaScan struct {
	cols     *algebra.Columns
	order    algebra.OrderDesc
	ctx      context.Context
	budget   *Budget
	col      int
	f        value.Formula
	match    func(value.Atom) bool
	atoms    []value.Atom
	nulls    []int32 // ascending ⊥ row indexes; nil for the common clean column
	pos      int
	examined int64
	polls    int
}

// NewBatchFormulaScan builds the fused filtered batch scan over rel,
// filtering on the named top-level attribute. Null values never satisfy a
// formula.
func NewBatchFormulaScan(ctx context.Context, rel *algebra.Relation, order algebra.OrderDesc, attr string, f value.Formula) (*BatchFormulaScan, error) {
	cols := rel.Columns()
	col := cols.Schema.Index(attr)
	if col < 0 {
		return nil, fmt.Errorf("physical: batch formula scan: no attribute %q", attr)
	}
	return &BatchFormulaScan{
		cols: cols, order: order, ctx: ctx, budget: BudgetFrom(ctx),
		col: col, f: f, match: f.Matcher(), atoms: cols.Atoms(col), nulls: cols.Nulls(col),
	}, nil
}

// Schema implements BatchIterator.
func (s *BatchFormulaScan) Schema() *algebra.Schema { return s.cols.Schema }

// Order implements BatchIterator; filtering preserves the declared order.
func (s *BatchFormulaScan) Order() algebra.OrderDesc { return s.order }

// Examined reports how many extent rows the filter has inspected.
func (s *BatchFormulaScan) Examined() int64 { return s.examined }

// Polls reports the context checks run.
func (s *BatchFormulaScan) Polls() int { return s.polls }

// NextBatch implements BatchIterator.
func (s *BatchFormulaScan) NextBatch() (*Batch, bool) {
	vals := s.cols.Cols[s.col]
	for s.pos < s.cols.NRows {
		end := s.pos + BatchSize
		if end > s.cols.NRows {
			end = s.cols.NRows
		}
		n := end - s.pos
		s.polls++
		batchCancelCheck(s.ctx, s.budget, int64(n))
		s.examined += int64(n)
		var sel []int
		if len(s.nulls) == 0 {
			// Clean column: the vectorized kernel matches the whole window
			// with no per-row kind checks or closure calls.
			sel = s.f.MatchColumn(s.atoms[s.pos:end], sel)
		} else {
			for i := s.pos; i < end; i++ {
				if vals[i].Kind != algebra.Null && s.match(s.atoms[i]) {
					sel = append(sel, i-s.pos)
				}
			}
		}
		start := s.pos
		s.pos = end
		if sel == nil {
			continue // whole window filtered out; examine the next one
		}
		cols := make([][]algebra.Value, len(s.cols.Cols))
		for j := range cols {
			cols[j] = s.cols.Cols[j][start:end]
		}
		return &Batch{Schema: s.cols.Schema, Cols: cols, Sel: sel, N: n}, true
	}
	return nil, false
}

// BatchSelect filters incoming batches with σ predicates on top-level
// attributes, refining each batch's selection in place of copying rows.
type BatchSelect struct {
	in    BatchIterator
	preds []algebra.Pred
	idx   []int
}

// NewBatchSelect builds the batch counterpart of NewSelect.
func NewBatchSelect(in BatchIterator, preds ...algebra.Pred) (*BatchSelect, error) {
	idx := make([]int, len(preds))
	for i, p := range preds {
		j := in.Schema().Index(p.Path)
		if j < 0 {
			return nil, fmt.Errorf("physical: batch select: no attribute %q", p.Path)
		}
		idx[i] = j
	}
	return &BatchSelect{in: in, preds: preds, idx: idx}, nil
}

// Schema implements BatchIterator.
func (f *BatchSelect) Schema() *algebra.Schema { return f.in.Schema() }

// Order implements BatchIterator; filtering preserves order.
func (f *BatchSelect) Order() algebra.OrderDesc { return f.in.Order() }

// NextBatch implements BatchIterator.
func (f *BatchSelect) NextBatch() (*Batch, bool) {
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		var sel []int
		rows := b.Rows()
	row:
		for i := 0; i < rows; i++ {
			r := b.Row(i)
			for k, p := range f.preds {
				if !p.Op.Apply(b.Cols[f.idx[k]][r], p.Const) {
					continue row
				}
			}
			sel = append(sel, r)
		}
		if sel == nil {
			continue
		}
		return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel, N: b.N}, true
	}
}

// BatchFormulaFilter applies a σ_φ value-formula filter to incoming batches
// (the non-fused case, where the input is not a bare extent scan and no
// cached atom column exists).
type BatchFormulaFilter struct {
	in    BatchIterator
	col   int
	match func(value.Atom) bool
}

// NewBatchFormulaFilter builds a batch σ_φ over the named attribute.
func NewBatchFormulaFilter(in BatchIterator, attr string, f value.Formula) (*BatchFormulaFilter, error) {
	col := in.Schema().Index(attr)
	if col < 0 {
		return nil, fmt.Errorf("physical: batch formula filter: no attribute %q", attr)
	}
	return &BatchFormulaFilter{in: in, col: col, match: f.Matcher()}, nil
}

// Schema implements BatchIterator.
func (f *BatchFormulaFilter) Schema() *algebra.Schema { return f.in.Schema() }

// Order implements BatchIterator.
func (f *BatchFormulaFilter) Order() algebra.OrderDesc { return f.in.Order() }

// NextBatch implements BatchIterator.
func (f *BatchFormulaFilter) NextBatch() (*Batch, bool) {
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		var sel []int
		rows := b.Rows()
		col := b.Cols[f.col]
		for i := 0; i < rows; i++ {
			r := b.Row(i)
			if col[r].Kind != algebra.Null && f.match(value.Str(col[r].AsString())) {
				sel = append(sel, r)
			}
		}
		if sel == nil {
			continue
		}
		return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel, N: b.N}, true
	}
}

// BatchProject keeps the named top-level attributes — pure column-pointer
// selection, no row materialization at all.
type BatchProject struct {
	in     BatchIterator
	cols   []int
	schema *algebra.Schema
}

// NewBatchProject builds the batch counterpart of NewProject.
func NewBatchProject(in BatchIterator, names ...string) (*BatchProject, error) {
	cols := make([]int, len(names))
	schema := &algebra.Schema{}
	for i, n := range names {
		j := in.Schema().Index(n)
		if j < 0 {
			return nil, fmt.Errorf("physical: batch project: no attribute %q", n)
		}
		cols[i] = j
		schema.Attrs = append(schema.Attrs, in.Schema().Attrs[j])
	}
	return &BatchProject{in: in, cols: cols, schema: schema}, nil
}

// Schema implements BatchIterator.
func (p *BatchProject) Schema() *algebra.Schema { return p.schema }

// Order implements BatchIterator: the surviving prefix of the input order,
// matching the row Projection.
func (p *BatchProject) Order() algebra.OrderDesc {
	var out algebra.OrderDesc
	for _, o := range p.in.Order() {
		if p.schema.Index(o) >= 0 {
			out = append(out, o)
		} else {
			break
		}
	}
	return out
}

// NextBatch implements BatchIterator.
func (p *BatchProject) NextBatch() (*Batch, bool) {
	b, ok := p.in.NextBatch()
	if !ok {
		return nil, false
	}
	cols := make([][]algebra.Value, len(p.cols))
	for i, j := range p.cols {
		cols[i] = b.Cols[j]
	}
	return &Batch{Schema: p.schema, Cols: cols, Sel: b.Sel, N: b.N}, true
}

// BatchReschema re-labels batches with a schema of identical shape (the
// batch form of ρ); the declared order resets because the attribute names
// an upstream order descriptor referred to no longer exist.
type BatchReschema struct {
	in     BatchIterator
	schema *algebra.Schema
}

// NewBatchReschema wraps in with the replacement schema, which must have
// the same width.
func NewBatchReschema(in BatchIterator, schema *algebra.Schema) (*BatchReschema, error) {
	if len(schema.Attrs) != len(in.Schema().Attrs) {
		return nil, fmt.Errorf("physical: batch reschema: width %d != input width %d",
			len(schema.Attrs), len(in.Schema().Attrs))
	}
	return &BatchReschema{in: in, schema: schema}, nil
}

// Schema implements BatchIterator.
func (r *BatchReschema) Schema() *algebra.Schema { return r.schema }

// Order implements BatchIterator.
func (r *BatchReschema) Order() algebra.OrderDesc { return nil }

// NextBatch implements BatchIterator.
func (r *BatchReschema) NextBatch() (*Batch, bool) {
	b, ok := r.in.NextBatch()
	if !ok {
		return nil, false
	}
	return &Batch{Schema: r.schema, Cols: b.Cols, Sel: b.Sel, N: b.N}, true
}

// batchRef addresses one live row inside a drained batch list.
type batchRef struct {
	b int32 // index into the batch list
	r int32 // physical row inside that batch
}

// drainRefs pulls every batch from in and returns the batch list plus the
// live rows in arrival order. It is the materialization step of the
// blocking batch operators (sort, join builds, stack-tree); cancellation
// panics from the leaves unwind through it to the root drain.
func drainRefs(in BatchIterator) ([]*Batch, []batchRef) {
	var batches []*Batch
	var refs []batchRef
	for {
		b, ok := in.NextBatch()
		if !ok {
			return batches, refs
		}
		bi := int32(len(batches))
		batches = append(batches, b)
		rows := b.Rows()
		for i := 0; i < rows; i++ {
			refs = append(refs, batchRef{b: bi, r: int32(b.Row(i))})
		}
	}
}

// gatherBatches materializes refs (rows scattered across batches) into
// fresh, compact output batches over schema. pick maps an output column to
// its (batch-list, column) source: joins gather from two input lists.
func gatherBatches(schema *algebra.Schema, width int, n int,
	col func(out int) func(ref batchRef) algebra.Value, refAt func(i int) batchRef) []*Batch {
	var out []*Batch
	for start := 0; start < n; start += BatchSize {
		end := start + BatchSize
		if end > n {
			end = n
		}
		bn := end - start
		cols := make([][]algebra.Value, width)
		backing := make([]algebra.Value, bn*width)
		for j := 0; j < width; j++ {
			cols[j] = backing[j*bn : (j+1)*bn : (j+1)*bn]
			get := col(j)
			for i := 0; i < bn; i++ {
				cols[j][i] = get(refAt(start + i))
			}
		}
		out = append(out, &Batch{Schema: schema, Cols: cols, N: bn})
	}
	return out
}

// BatchSort materializes its input and emits it sorted by top-level
// attribute paths: the batch counterpart of SortOp. Sorting permutes row
// references, not rows; values are gathered into output batches once, at
// emission. Downstream batch structural joins (BatchStackTree) consume the
// sorted references directly and skip that gather entirely.
type BatchSort struct {
	in      BatchIterator
	by      []string
	idx     []int
	batches []*Batch
	refs    []batchRef
	built   bool
	emitPos int
}

// NewBatchSort builds a batch sort; unknown sort columns are an error, like
// NewSort.
func NewBatchSort(in BatchIterator, by ...string) (*BatchSort, error) {
	idx := make([]int, len(by))
	for i, b := range by {
		j := in.Schema().Index(b)
		if j < 0 {
			return nil, fmt.Errorf("physical: batch sort: no attribute %q", b)
		}
		idx[i] = j
	}
	return &BatchSort{in: in, by: by, idx: idx}, nil
}

// Schema implements BatchIterator.
func (s *BatchSort) Schema() *algebra.Schema { return s.in.Schema() }

// Order implements BatchIterator.
func (s *BatchSort) Order() algebra.OrderDesc { return algebra.OrderDesc(s.by) }

// build drains the input and stable-sorts the row references with the same
// comparator semantics as SortOp (incomparable pairs keep arrival order).
func (s *BatchSort) build() {
	if s.built {
		return
	}
	s.batches, s.refs = drainRefs(s.in)
	sort.SliceStable(s.refs, func(i, j int) bool {
		a, b := s.refs[i], s.refs[j]
		for _, k := range s.idx {
			cmp, ok := s.batches[a.b].Cols[k][a.r].Compare(s.batches[b.b].Cols[k][b.r])
			if ok && cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	s.built = true
}

// sortedRefs exposes the sorted row references for fused consumers
// (BatchStackTree reads IDs straight out of the source batches).
func (s *BatchSort) sortedRefs() ([]*Batch, []batchRef) {
	s.build()
	return s.batches, s.refs
}

// NextBatch implements BatchIterator: gathers the next window of sorted
// rows into a compact batch.
func (s *BatchSort) NextBatch() (*Batch, bool) {
	s.build()
	if s.emitPos >= len(s.refs) {
		return nil, false
	}
	end := s.emitPos + BatchSize
	if end > len(s.refs) {
		end = len(s.refs)
	}
	schema := s.in.Schema()
	w := len(schema.Attrs)
	bn := end - s.emitPos
	cols := make([][]algebra.Value, w)
	backing := make([]algebra.Value, bn*w)
	for j := 0; j < w; j++ {
		cols[j] = backing[j*bn : (j+1)*bn : (j+1)*bn]
		for i := 0; i < bn; i++ {
			ref := s.refs[s.emitPos+i]
			cols[j][i] = s.batches[ref.b].Cols[j][ref.r]
		}
	}
	s.emitPos = end
	return &Batch{Schema: schema, Cols: cols, N: bn}, true
}

// Rebatch adapts a row iterator into the batch protocol: the transparent
// fallback for operators without a batch form. It pulls up to BatchSize
// tuples per batch and transposes them; the row subtree below keeps its own
// Checkpoint charging, so Rebatch itself charges nothing.
type Rebatch struct {
	in Iterator
}

// NewRebatch wraps a row iterator as a BatchIterator.
func NewRebatch(in Iterator) *Rebatch { return &Rebatch{in: in} }

// Schema implements BatchIterator.
func (r *Rebatch) Schema() *algebra.Schema { return r.in.Schema() }

// Order implements BatchIterator.
func (r *Rebatch) Order() algebra.OrderDesc { return r.in.Order() }

// NextBatch implements BatchIterator.
func (r *Rebatch) NextBatch() (*Batch, bool) {
	schema := r.in.Schema()
	w := len(schema.Attrs)
	var rows []algebra.Tuple
	for len(rows) < BatchSize {
		t, ok := r.in.Next()
		if !ok {
			break
		}
		rows = append(rows, t)
	}
	if len(rows) == 0 {
		return nil, false
	}
	n := len(rows)
	cols := make([][]algebra.Value, w)
	backing := make([]algebra.Value, n*w)
	for j := 0; j < w; j++ {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
		for i, t := range rows {
			if j < len(t) {
				cols[j][i] = t[j]
			}
		}
	}
	return &Batch{Schema: schema, Cols: cols, N: n}, true
}

// Unbatch adapts a BatchIterator back into the row protocol, materializing
// one tuple per Next. It lets a row-only consumer sit above a batch
// subtree; the batch leaves below carry the charging.
type Unbatch struct {
	in  BatchIterator
	cur *Batch
	pos int
}

// NewUnbatch wraps a batch iterator as a row Iterator.
func NewUnbatch(in BatchIterator) *Unbatch { return &Unbatch{in: in} }

// Schema implements Iterator.
func (u *Unbatch) Schema() *algebra.Schema { return u.in.Schema() }

// Order implements Iterator.
func (u *Unbatch) Order() algebra.OrderDesc { return u.in.Order() }

// Next implements Iterator. The batch pull is budget coverage: the wrapped
// chain's leaves poll the context and charge per batch.
func (u *Unbatch) Next() (algebra.Tuple, bool) {
	for u.cur == nil || u.pos >= u.cur.Rows() {
		b, ok := u.in.NextBatch()
		if !ok {
			return nil, false
		}
		u.cur, u.pos = b, 0
	}
	t := u.cur.Tuple(u.pos)
	u.pos++
	return t, true
}

// EachBatchContext pulls every batch of it and hands it to fn, honoring the
// context per batch and recovering *Cancelled panics raised by batch leaves
// (and by row Checkpoints under Rebatch adapters). It is the root of the
// production result path: fn writes the batch's live rows out straight from
// the column vectors, so nothing is pivoted into tuples. A non-nil error
// from fn stops the pull. It returns the number of batches pulled, the
// engine.batches accounting source.
func EachBatchContext(ctx context.Context, it BatchIterator, fn func(*Batch) error) (batches int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			if c, ok := p.(*Cancelled); ok {
				err = c.Err
				return
			}
			panic(p)
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return batches, err
		}
		b, ok := it.NextBatch()
		if !ok {
			return batches, nil
		}
		batches++
		if err := fn(b); err != nil {
			return batches, err
		}
	}
}

// DrainBatchesContext materializes a batch iterator into a relation under
// the EachBatchContext protocol, pivoting each batch's live rows into
// row-major tuples: the form blocking plan nodes (and callers that want a
// Relation) consume.
func DrainBatchesContext(ctx context.Context, it BatchIterator) (*algebra.Relation, int64, error) {
	out := algebra.NewRelation(it.Schema())
	w := len(it.Schema().Attrs)
	batches, err := EachBatchContext(ctx, it, func(b *Batch) error {
		rows := b.Rows()
		if rows == 0 {
			return nil
		}
		backing := make([]algebra.Value, rows*w)
		for i := 0; i < rows; i++ {
			r := b.Row(i)
			t := backing[i*w : (i+1)*w : (i+1)*w]
			for j := 0; j < w && j < len(b.Cols); j++ {
				t[j] = b.Cols[j][r]
			}
			out.Tuples = append(out.Tuples, t)
		}
		return nil
	})
	if err != nil {
		return nil, batches, err
	}
	return out, batches, nil
}
