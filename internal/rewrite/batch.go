package rewrite

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xamdb/internal/algebra"
	"xamdb/internal/faultinject"
	"xamdb/internal/physical"
	"xamdb/internal/xam"
)

// This file is the batch counterpart of physical.go's compile: it lowers
// plans onto the vectorized BatchIterator operators (batch scans over
// columnar extents, fused σ_φ formula scans, batch projections, hash and
// stack-tree joins). Operators without a batch form — nest joins, parent
// derivation, unions — fall back to the row compiler wrapped in a Rebatch
// adapter; the fallback count is surfaced so the engine can report
// engine.batch_fallbacks. Labels match the row compiler exactly, so
// EXPLAIN ANALYZE trees keep one vocabulary across both paths.

// BatchExecInfo reports how a batch execution went: how many batches
// flowed through the pipeline (drains at materialization points plus the
// root drain) and how many plan nodes fell back to the row engine.
type BatchExecInfo struct {
	Batches   int64
	Fallbacks int64
}

// ExecuteBatchContext compiles the plan onto the batch operators and drains
// the resulting batch iterator. It produces the same relation as
// ExecutePhysicalContext in the same order (checked by the differential
// tests); the batch path exists for throughput, not semantics.
func ExecuteBatchContext(ctx context.Context, p Plan, env Env) (*algebra.Relation, BatchExecInfo, error) {
	rel, _, info, err := executeBatchDrain(ctx, p, env, false)
	return rel, info, err
}

// ExecuteBatchAnalyzeContext is ExecuteBatchContext with instrumentation:
// every plan node accumulates into an OpStats tree mirroring the plan, with
// batch counts alongside rows and time. On execution error the
// partially-filled stats tree is still returned.
func ExecuteBatchAnalyzeContext(ctx context.Context, p Plan, env Env) (*algebra.Relation, *physical.OpStats, BatchExecInfo, error) {
	return executeBatchDrain(ctx, p, env, true)
}

func executeBatchDrain(ctx context.Context, p Plan, env Env, instr bool) (*algebra.Relation, *physical.OpStats, BatchExecInfo, error) {
	c := &batchCompiler{ctx: ctx, env: env, instr: instr}
	it, stats, err := c.compile(p)
	if err != nil {
		return nil, stats, c.info(), err
	}
	rel, err := c.drain(it)
	return rel, stats, c.info(), err
}

// ExecuteBatchEachContext compiles the plan onto the batch operators and
// hands the root iterator's batches to fn as they are produced, instead of
// draining them into a relation: the production result path, where fn
// writes each batch's rows out. With analyze set every plan node is
// instrumented as in ExecuteBatchAnalyzeContext. Batches carry the plan's
// own attribute naming; they align with the query pattern's schema by
// position (what AlignSchema renames for relation consumers).
func ExecuteBatchEachContext(ctx context.Context, p Plan, env Env, analyze bool, fn func(*physical.Batch) error) (*physical.OpStats, BatchExecInfo, error) {
	c := &batchCompiler{ctx: ctx, env: env, instr: analyze}
	it, stats, err := c.compile(p)
	if err != nil {
		return stats, c.info(), err
	}
	n, err := physical.EachBatchContext(ctx, it, fn)
	c.batches += n
	return stats, c.info(), err
}

// batchCompiler carries compilation state: the execution context, the view
// extents, and the batch/fallback accounting the engine's metrics consume.
type batchCompiler struct {
	ctx       context.Context
	env       Env
	instr     bool
	batches   int64
	fallbacks int64
}

func (c *batchCompiler) info() BatchExecInfo {
	return BatchExecInfo{Batches: c.batches, Fallbacks: c.fallbacks}
}

// wrap instruments a finished batch node; a no-op when instrumentation is
// off.
func (c *batchCompiler) wrap(label string, it physical.BatchIterator, children ...*physical.OpStats) (physical.BatchIterator, *physical.OpStats) {
	if !c.instr {
		return it, nil
	}
	ins := physical.NewBatchInstrument(label, it)
	for _, ch := range children {
		ins.Stats().AddChild(ch)
	}
	return ins, ins.Stats()
}

// drain materializes a batch subtree at a blocking plan node, counting its
// batches toward the execution total.
func (c *batchCompiler) drain(it physical.BatchIterator) (*algebra.Relation, error) {
	rel, n, err := physical.DrainBatchesContext(c.ctx, it)
	c.batches += n
	return rel, err
}

// fallback compiles p with the row compiler and adapts it into the batch
// protocol. The row subtree keeps its own Checkpoint charging and its own
// stats nodes — no extra label is added, so the EXPLAIN ANALYZE tree shows
// the row operators directly under the batch parent.
func (c *batchCompiler) fallback(p Plan) (physical.BatchIterator, *physical.OpStats, error) {
	it, st, err := compile(c.ctx, p, c.env, c.instr)
	if err != nil {
		return nil, st, err
	}
	c.fallbacks++
	return physical.NewRebatch(it), st, nil
}

// compile lowers one plan node onto the batch operators.
func (c *batchCompiler) compile(p Plan) (physical.BatchIterator, *physical.OpStats, error) {
	switch pl := p.(type) {
	case *ScanPlan:
		if err := faultinject.Check(SiteCompileScan); err != nil {
			return nil, nil, err
		}
		rel, ok := c.env[pl.View.Name]
		if !ok {
			return nil, nil, fmt.Errorf("rewrite: no extent for view %q", pl.View.Name)
		}
		it, st := c.wrap("scan("+pl.View.Name+")", physical.NewBatchScan(c.ctx, rel, nil))
		return it, st, nil

	case *SelectValPlan:
		if scan, ok := pl.In.(*ScanPlan); ok {
			// Fused σ_φ over a view extent: the vectorized formula scan
			// evaluates the compiled matcher against the extent's cached
			// atom column. Self-checkpointing, like FormulaSelect.
			if err := faultinject.Check(SiteCompileScan); err != nil {
				return nil, nil, err
			}
			rel, ok := c.env[scan.View.Name]
			if !ok {
				return nil, nil, fmt.Errorf("rewrite: no extent for view %q", scan.View.Name)
			}
			fs, err := physical.NewBatchFormulaScan(c.ctx, rel, nil, pl.Node+".Val", pl.Formula)
			if err != nil {
				return nil, nil, err
			}
			it, st := c.wrap(fmt.Sprintf("σ[φ(%s.Val)]·scan(%s)", pl.Node, scan.View.Name), fs)
			return it, st, nil
		}
		in, cst, err := c.compile(pl.In)
		if err != nil {
			return nil, cst, err
		}
		filter, err := physical.NewBatchFormulaFilter(in, pl.Node+".Val", pl.Formula)
		if err != nil {
			return nil, cst, err
		}
		it, st := c.wrap(fmt.Sprintf("σ[φ(%s.Val)]", pl.Node), filter, cst)
		return it, st, nil

	case *SelectTagPlan:
		in, cst, err := c.compile(pl.In)
		if err != nil {
			return nil, cst, err
		}
		sel, err := physical.NewBatchSelect(in, algebra.Pred{Path: pl.Node + ".Tag", Op: algebra.Eq, Const: algebra.S(pl.Label)})
		if err != nil {
			return nil, cst, err
		}
		it, st := c.wrap(fmt.Sprintf("σ[%s.Tag=%s]", pl.Node, pl.Label), sel, cst)
		return it, st, nil

	case *ProjectPlan:
		in, cst, err := c.compile(pl.In)
		if err != nil {
			return nil, cst, err
		}
		if pl.Nested {
			pat := pl.Pattern()
			if pat == nil {
				return nil, cst, fmt.Errorf("rewrite: nested projection has no pattern")
			}
			var st *physical.OpStats
			var start time.Time
			if c.instr {
				st = &physical.OpStats{Label: "π⁰ⁿ[" + strings.Join(pl.Attrs, ",") + "]"}
				st.AddChild(cst)
				start = time.Now()
			}
			drained, err := c.drain(in)
			if err != nil {
				return nil, st, err
			}
			shaped, err := algebra.Reshape(drained, pat.Schema())
			if err != nil {
				return nil, st, err
			}
			// Vectorized dedup over the reshaped collection: typed hashing
			// instead of the row engine's rendered-string fingerprints.
			dist := physical.NewBatchDistinct(physical.NewBatchRelScan(c.ctx, shaped, nil))
			if c.instr {
				st.Time += time.Since(start)
				return physical.BatchInstrumentWith(st, dist), st, nil
			}
			return dist, nil, nil
		}
		proj, err := physical.NewBatchProject(in, pl.Attrs...)
		if err != nil {
			return nil, cst, err
		}
		// The flat π° stays fully streaming: projection is a column-pointer
		// pick and the distinct dedups batch by batch with typed hashes — no
		// materialization point at all, unlike the row compiler.
		it, st := c.wrap("π⁰["+strings.Join(pl.Attrs, ",")+"]", physical.NewBatchDistinct(proj), cst)
		return it, st, nil

	case *StructJoinPlan:
		outer, ost, err := c.compile(pl.Outer)
		if err != nil {
			return nil, ost, err
		}
		inner, ist, err := c.compile(pl.Inner)
		if err != nil {
			return nil, ist, err
		}
		oSort, err := physical.NewBatchSort(outer, pl.OuterNode+".ID")
		if err != nil {
			return nil, ost, err
		}
		iSort, err := physical.NewBatchSort(inner, pl.InnerNode+".ID")
		if err != nil {
			return nil, ist, err
		}
		var outerSorted, innerSorted physical.BatchIterator = oSort, iSort
		if c.instr {
			oIns := physical.NewBatchInstrument("sort["+pl.OuterNode+".ID]", outerSorted)
			oIns.Stats().AddChild(ost)
			iIns := physical.NewBatchInstrument("sort["+pl.InnerNode+".ID]", innerSorted)
			iIns.Stats().AddChild(ist)
			outerSorted, ost = oIns, oIns.Stats()
			innerSorted, ist = iIns, iIns.Stats()
		}
		axis := physical.DescendantAxis
		axisName := "desc"
		if pl.Axis == xam.Child {
			axis = physical.ChildAxis
			axisName = "child"
		}
		join, err := physical.NewBatchStackTreeDesc(outerSorted, innerSorted, pl.OuterNode+".ID", pl.InnerNode+".ID", axis)
		if err != nil {
			return nil, nil, err
		}
		it, st := c.wrap(fmt.Sprintf("stacktree[%s ≺%s %s]", pl.OuterNode, axisName, pl.InnerNode), join, ost, ist)
		return it, st, nil

	case *FusePlan:
		left, lst, err := c.compile(pl.Left)
		if err != nil {
			return nil, lst, err
		}
		right, rst, err := c.compile(pl.Right)
		if err != nil {
			return nil, rst, err
		}
		hj, err := physical.NewBatchHashJoin(left, right, pl.LeftNode+".ID", pl.RightNode+".ID", false)
		if err != nil {
			return nil, nil, err
		}
		var st *physical.OpStats
		var start time.Time
		if c.instr {
			st = &physical.OpStats{Label: fmt.Sprintf("fuse[%s=%s]", pl.LeftNode, pl.RightNode)}
			st.AddChild(lst)
			st.AddChild(rst)
			start = time.Now()
		}
		rel, err := c.drain(hj)
		if c.instr {
			st.Time += time.Since(start)
		}
		if err != nil {
			return nil, st, err
		}
		shaped, err := fuseShape(rel, pl, left.Schema(), right.Schema())
		if err != nil {
			return nil, st, err
		}
		if !c.instr {
			return physical.NewBatchRelScan(c.ctx, shaped, nil), nil, nil
		}
		return physical.BatchInstrumentWith(st, physical.NewBatchRelScan(c.ctx, shaped, nil)), st, nil

	case *RenamePlan:
		in, cst, err := c.compile(pl.In)
		if err != nil {
			return nil, cst, err
		}
		// ρ is pure schema relabeling: the batch path streams it instead of
		// materializing like the row compiler does.
		re, err := physical.NewBatchReschema(in, renameSchema(in.Schema(), pl.Suffix))
		if err != nil {
			return nil, cst, err
		}
		it, st := c.wrap("ρ["+pl.Suffix+"]", re, cst)
		return it, st, nil

	case *NestJoinPlan, *DeriveParentPlan, *UnionPlan:
		// No batch form: nest joins group into nested collections, parent
		// derivation maps through the logical layer, unions align drained
		// parts — all row/materialization shaped. Fall back transparently.
		return c.fallback(p)
	}
	return nil, nil, fmt.Errorf("rewrite: cannot batch-compile %T", p)
}
