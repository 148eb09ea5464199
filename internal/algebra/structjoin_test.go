package algebra

import (
	"math/rand"
	"testing"

	"xamdb/internal/xmltree"
)

// loopJoin is the nested-loop join flatJoin used to be for every predicate:
// the reference the indexed structural path must reproduce exactly.
func loopJoin(r, s *Relation, li int, op Cmp, ri int, mode JoinMode, nestAs string) *Relation {
	var out *Relation
	switch mode {
	case InnerJoin, OuterJoin:
		out = NewRelation(r.Schema.Concat(s.Schema))
	case SemiJoin, AntiJoin:
		out = NewRelation(r.Schema)
	default:
		out = NewRelation(&Schema{Attrs: append(append([]Attr{}, r.Schema.Attrs...), Attr{Name: nestAs, Nested: s.Schema})})
	}
	for _, t := range r.Tuples {
		var matches []Tuple
		for _, u := range s.Tuples {
			if op.Apply(t[li], u[ri]) {
				matches = append(matches, u)
			}
		}
		switch mode {
		case InnerJoin, OuterJoin:
			if len(matches) == 0 && mode == OuterJoin {
				out.Add(t.Concat(nullTuple(s.Schema)))
			}
			for _, u := range matches {
				out.Add(t.Concat(u))
			}
		case SemiJoin, AntiJoin:
			if (len(matches) > 0) == (mode == SemiJoin) {
				out.Add(t)
			}
		default:
			if len(matches) > 0 || mode == NestOuterJoin {
				out.Add(append(t.Clone(), RelV(NewRelation(s.Schema).Add(matches...))))
			}
		}
	}
	return out
}

// randomTreeIDs labels a random tree of n nodes as Relabel does.
func randomTreeIDs(rng *rand.Rand, n int) []xmltree.NodeID {
	children := make([][]int, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		children[p] = append(children[p], i)
	}
	ids := make([]xmltree.NodeID, n)
	var pre, post int32
	var visit func(i int, depth int32)
	visit = func(i int, depth int32) {
		pre++
		ids[i].Pre, ids[i].Depth = pre, depth
		for _, c := range children[i] {
			visit(c, depth+1)
		}
		post++
		ids[i].Post = post
	}
	visit(0, 1)
	return ids
}

// TestStructuralJoinMatchesNestedLoop: on random trees — inputs sampled with
// repetition, shuffled, with ⊥ mixed in — and on identifiers that label no
// tree at all, the indexed join equals the nested loop for both structural
// predicates and all six join modes, tuple for tuple and in order.
func TestStructuralJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	modes := []JoinMode{InnerJoin, SemiJoin, AntiJoin, OuterJoin, NestJoin, NestOuterJoin}
	for round := 0; round < 200; round++ {
		ids := randomTreeIDs(rng, 1+rng.Intn(60))
		if round%4 == 3 {
			// Arbitrary triples: the index may prune less, never differently.
			for i := range ids {
				ids[i] = xmltree.NodeID{Pre: int32(rng.Intn(12)), Post: int32(rng.Intn(12)), Depth: int32(rng.Intn(4))}
			}
		}
		side := func(idName, tagName string) *Relation {
			rel := NewRelation(NewSchema(idName, tagName))
			for i, n := 0, rng.Intn(2*len(ids)+1); i < n; i++ {
				v := IDV(ids[rng.Intn(len(ids))])
				if rng.Intn(10) == 0 {
					v = NullValue
				}
				rel.Add(Tuple{v, I(int64(i))})
			}
			if round%2 == 0 {
				// Document order, as extents arrive; otherwise left shuffled.
				sortByPre(rel)
			}
			return rel
		}
		r, s := side("a.ID", "a.n"), side("b.ID", "b.n")
		for _, op := range []Cmp{Parent, Ancestor} {
			for _, mode := range modes {
				got, err := Join(r, s, JoinPred{Left: "a.ID", Op: op, Right: "b.ID"}, mode, "bs")
				if err != nil {
					t.Fatal(err)
				}
				want := loopJoin(r, s, 0, op, 0, mode, "bs")
				if !got.Schema.Equal(want.Schema) || !got.Equal(want) {
					t.Fatalf("round %d %s %s:\nouter %s\ninner %s\ngot  %s\nwant %s", round, op, mode, r, s, got, want)
				}
			}
		}
	}
}

func sortByPre(rel *Relation) {
	sorted, _ := Sort(rel, OrderDesc{rel.Schema.Attrs[0].Name})
	rel.Tuples = sorted.Tuples
}

// TestStructuralJoinKeepsLoopForOtherKinds: Dewey identifiers and mixed
// columns stay on the nested loop and still join.
func TestStructuralJoinKeepsLoopForOtherKinds(t *testing.T) {
	r := NewRelation(NewSchema("a.ID")).Add(Tuple{DV(xmltree.Dewey{1})}, Tuple{IDV(xmltree.NodeID{Pre: 1, Post: 3, Depth: 1})})
	s := NewRelation(NewSchema("b.ID")).Add(Tuple{DV(xmltree.Dewey{1, 2})}, Tuple{IDV(xmltree.NodeID{Pre: 2, Post: 1, Depth: 2})})
	if newStructIndex(r, s, 0, Parent, 0) != nil {
		t.Fatal("mixed identifier kinds must not be indexed")
	}
	got, err := Join(r, s, JoinPred{Left: "a.ID", Op: Parent, Right: "b.ID"}, InnerJoin, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := loopJoin(r, s, 0, Parent, 0, InnerJoin, ""); !got.Equal(want) || got.Len() != 2 {
		t.Fatalf("got %s want %s", got, want)
	}
}

func BenchmarkStructuralNestJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ids := randomTreeIDs(rng, 20000)
	outer, inner := NewRelation(NewSchema("a.ID")), NewRelation(NewSchema("b.ID"))
	for i, id := range ids {
		if i%10 == 0 {
			outer.Add(Tuple{IDV(id)})
		} else {
			inner.Add(Tuple{IDV(id)})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Join(outer, inner, JoinPred{Left: "a.ID", Op: Parent, Right: "b.ID"}, NestOuterJoin, "bs"); err != nil {
			b.Fatal(err)
		}
	}
}
