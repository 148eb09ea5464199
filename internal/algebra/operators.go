package algebra

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Cmp is a predicate comparator (§1.2.2): value comparisons plus the
// structural comparators ≺ (parent) and ≺≺ (ancestor) over identifiers.
type Cmp uint8

const (
	// Eq is '='.
	Eq Cmp = iota
	// Ne is '≠'.
	Ne
	// Lt is '<'.
	Lt
	// Le is '≤'.
	Le
	// Gt is '>'.
	Gt
	// Ge is '≥'.
	Ge
	// Parent is the structural ≺ comparator on identifiers.
	Parent
	// Ancestor is the structural ≺≺ comparator on identifiers.
	Ancestor
)

func (c Cmp) String() string {
	switch c {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Parent:
		return "≺"
	case Ancestor:
		return "≺≺"
	}
	return "?"
}

// Apply evaluates the comparator over two values. Comparisons involving ⊥ or
// incomparable kinds are false.
func (c Cmp) Apply(a, b Value) bool {
	switch c {
	case Parent:
		switch {
		case a.Kind == ID && b.Kind == ID:
			return a.ID.ParentOf(b.ID)
		case a.Kind == DeweyID && b.Kind == DeweyID:
			return a.Dewey.ParentOf(b.Dewey)
		}
		return false
	case Ancestor:
		switch {
		case a.Kind == ID && b.Kind == ID:
			return a.ID.AncestorOf(b.ID)
		case a.Kind == DeweyID && b.Kind == DeweyID:
			return a.Dewey.AncestorOf(b.Dewey)
		}
		return false
	}
	cmp, ok := a.Compare(b)
	if !ok {
		if c == Eq {
			return a.Equal(b) && a.Kind != Null
		}
		if c == Ne {
			return !a.Equal(b) && a.Kind != Null && b.Kind != Null
		}
		return false
	}
	switch c {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	}
	return false
}

// Pred is a selection predicate A θ c over a single relation. Path may be a
// dotted nested attribute path; selection then has the map/existential
// semantics of §1.2.2 (Example 1.2.2): tuples survive if some nested value
// matches, and nested collections are reduced to the matching tuples.
type Pred struct {
	Path  string
	Op    Cmp
	Const Value
}

func (p Pred) String() string {
	return fmt.Sprintf("%s%s%s", p.Path, p.Op, p.Const)
}

// Select implements σ_pred with map semantics on nested paths.
func Select(r *Relation, preds ...Pred) (*Relation, error) {
	out := NewRelation(r.Schema)
	resolved := make([][]int, len(preds))
	for i, p := range preds {
		idx, err := r.Schema.Resolve(p.Path)
		if err != nil {
			return nil, err
		}
		resolved[i] = idx
	}
	for _, t := range r.Tuples {
		keep := true
		cur := t
		for i, p := range preds {
			var ok bool
			cur, ok = filterTuple(cur, resolved[i], p.Op, p.Const)
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out.Add(cur)
		}
	}
	return out, nil
}

// filterTuple applies the predicate along the index path; it returns the
// (possibly reduced) tuple and whether it survives.
func filterTuple(t Tuple, idx []int, op Cmp, c Value) (Tuple, bool) {
	if len(idx) == 1 {
		return t, op.Apply(t[idx[0]], c)
	}
	v := t[idx[0]]
	if v.Kind != Rel {
		return t, false
	}
	inner := NewRelation(v.Rel.Schema)
	for _, it := range v.Rel.Tuples {
		if reduced, ok := filterTuple(it, idx[1:], op, c); ok {
			inner.Add(reduced)
		}
	}
	if inner.Len() == 0 {
		return t, false
	}
	out := t.Clone()
	out[idx[0]] = RelV(inner)
	return out, true
}

// Project implements π over top-level attribute names; dedup selects π⁰
// (duplicate elimination).
func Project(r *Relation, dedup bool, names ...string) (*Relation, error) {
	cols := make([]int, len(names))
	outSchema := &Schema{}
	for i, n := range names {
		j := r.Schema.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("algebra: project: no attribute %q", n)
		}
		cols[i] = j
		outSchema.Attrs = append(outSchema.Attrs, r.Schema.Attrs[j])
	}
	out := NewRelation(outSchema)
	var seen dedupSet
	for _, t := range r.Tuples {
		nt := make(Tuple, len(cols))
		for i, j := range cols {
			nt[i] = t[j]
		}
		if dedup && !seen.insert(nt) {
			continue
		}
		out.Add(nt)
	}
	return out, nil
}

// Distinct removes duplicate tuples preserving first occurrence order.
func Distinct(r *Relation) *Relation {
	out := NewRelation(r.Schema)
	var seen dedupSet
	for _, t := range r.Tuples {
		if seen.insert(t) {
			out.Add(t)
		}
	}
	return out
}

// dedupSet eliminates duplicate tuples in near-linear time: tuples are
// bucketed by a canonical fingerprint and collisions are confirmed with
// Tuple.Equal, so the result is exactly the quadratic scan's — π° and
// Distinct sit on every projected rewriting's output, where a linear scan
// per tuple dominated selective-predicate plans.
type dedupSet struct {
	buckets map[string][]Tuple
}

func (d *dedupSet) contains(t Tuple) bool {
	var sb strings.Builder
	tupleKey(&sb, t)
	for _, u := range d.buckets[sb.String()] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

func (d *dedupSet) insert(t Tuple) bool {
	if d.buckets == nil {
		d.buckets = map[string][]Tuple{}
	}
	var sb strings.Builder
	tupleKey(&sb, t)
	k := sb.String()
	for _, u := range d.buckets[k] {
		if u.Equal(t) {
			return false
		}
	}
	d.buckets[k] = append(d.buckets[k], t)
	return true
}

// tupleKey renders a fingerprint under which equal tuples collide: the kind
// tag plus a length-prefixed canonical rendering per value, recursing into
// nested collections.
func tupleKey(sb *strings.Builder, t Tuple) {
	for _, v := range t {
		sb.WriteByte(byte('0' + v.Kind))
		if v.Kind == Rel && v.Rel != nil {
			sb.WriteByte('[')
			for _, it := range v.Rel.Tuples {
				tupleKey(sb, it)
				sb.WriteByte(';')
			}
			sb.WriteByte(']')
			continue
		}
		s := v.AsString()
		fmt.Fprintf(sb, "%d:%s", len(s), s)
	}
}

// Product implements the cartesian product ×.
func Product(r, s *Relation) *Relation {
	out := NewRelation(r.Schema.Concat(s.Schema))
	for _, t := range r.Tuples {
		for _, u := range s.Tuples {
			out.Add(t.Concat(u))
		}
	}
	return out
}

// Union implements duplicate-preserving union; schemas must agree.
func Union(r, s *Relation) (*Relation, error) {
	if !r.Schema.Equal(s.Schema) {
		return nil, fmt.Errorf("algebra: union: schema mismatch %s vs %s", r.Schema, s.Schema)
	}
	out := NewRelation(r.Schema)
	out.Add(r.Tuples...)
	out.Add(s.Tuples...)
	return out, nil
}

// Difference implements set difference \ (tuples of r absent from s).
func Difference(r, s *Relation) (*Relation, error) {
	if !r.Schema.Equal(s.Schema) {
		return nil, fmt.Errorf("algebra: difference: schema mismatch")
	}
	out := NewRelation(r.Schema)
	var exclude dedupSet
	for _, t := range s.Tuples {
		exclude.insert(t)
	}
	for _, t := range r.Tuples {
		if !exclude.contains(t) {
			out.Add(t)
		}
	}
	return out, nil
}

// JoinMode selects among the paper's join flavors.
type JoinMode uint8

const (
	// InnerJoin is ⋈.
	InnerJoin JoinMode = iota
	// SemiJoin is the left semijoin ⋉.
	SemiJoin
	// AntiJoin keeps left tuples with no match (the σ∅ of Definition 1.2.1's
	// complement; used to implement negation and outerjoin padding).
	AntiJoin
	// OuterJoin is the left outerjoin.
	OuterJoin
	// NestJoin groups matches into a fresh collection attribute (⋈ⁿ).
	NestJoin
	// NestOuterJoin is the nest outerjoin: left tuples without matches keep
	// an empty collection.
	NestOuterJoin
)

func (m JoinMode) String() string {
	switch m {
	case InnerJoin:
		return "join"
	case SemiJoin:
		return "semijoin"
	case AntiJoin:
		return "antijoin"
	case OuterJoin:
		return "outerjoin"
	case NestJoin:
		return "nestjoin"
	case NestOuterJoin:
		return "nestouterjoin"
	}
	return "?"
}

// JoinPred is a join predicate left.Path θ right.Path. The left path may be
// dotted (nested); the right path must be a top-level attribute of the right
// operand. With a nested left path the join applies inside the nested
// collection via the map meta-operator (Example 1.2.3).
type JoinPred struct {
	Left  string
	Op    Cmp
	Right string
}

func (p JoinPred) String() string {
	return fmt.Sprintf("%s%s%s", p.Left, p.Op, p.Right)
}

// Join implements the join family over a single predicate. nestAs names the
// new collection attribute for nest variants.
func Join(r, s *Relation, pred JoinPred, mode JoinMode, nestAs string) (*Relation, error) {
	lidx, err := r.Schema.Resolve(pred.Left)
	if err != nil {
		return nil, err
	}
	ridx := s.Schema.Index(pred.Right)
	if ridx < 0 {
		return nil, fmt.Errorf("algebra: join: no right attribute %q", pred.Right)
	}
	if len(lidx) > 1 {
		return mapJoin(r, s, lidx, pred.Op, ridx, mode, nestAs)
	}
	return flatJoin(r, s, lidx[0], pred.Op, ridx, mode, nestAs)
}

func nullTuple(s *Schema) Tuple {
	t := make(Tuple, len(s.Attrs))
	for i := range t {
		t[i] = NullValue
	}
	return t
}

func flatJoin(r, s *Relation, li int, op Cmp, ri int, mode JoinMode, nestAs string) (*Relation, error) {
	var out *Relation
	switch mode {
	case InnerJoin, OuterJoin:
		out = NewRelation(r.Schema.Concat(s.Schema))
	case SemiJoin, AntiJoin:
		out = NewRelation(r.Schema)
	case NestJoin, NestOuterJoin:
		out = NewRelation(&Schema{Attrs: append(append([]Attr{}, r.Schema.Attrs...), Attr{Name: nestAs, Nested: s.Schema})})
	}
	// matchesOf lists, in s's order, the tuples of s joining with t. A
	// structural predicate over (pre, post, depth) identifiers takes them
	// from an index of s; everything else compares t against all of s.
	matchesOf := func(t Tuple) []Tuple {
		var matches []Tuple
		for _, u := range s.Tuples {
			if op.Apply(t[li], u[ri]) {
				matches = append(matches, u)
			}
		}
		return matches
	}
	// Sorting s costs about |s|·log|s| comparisons, the loop |r|·|s|: the
	// index pays for itself once the outer side outnumbers log|s| (with a
	// factor for the dearer sort step), and an empty outer side needs neither.
	if len(r.Tuples) > 2*bits.Len(uint(len(s.Tuples))) {
		if ix := newStructIndex(r, s, li, op, ri); ix != nil {
			matchesOf = ix.matchesOf
		}
	}
	for _, t := range r.Tuples {
		matches := matchesOf(t)
		switch mode {
		case InnerJoin:
			for _, u := range matches {
				out.Add(t.Concat(u))
			}
		case OuterJoin:
			if len(matches) == 0 {
				out.Add(t.Concat(nullTuple(s.Schema)))
			}
			for _, u := range matches {
				out.Add(t.Concat(u))
			}
		case SemiJoin:
			if len(matches) > 0 {
				out.Add(t)
			}
		case AntiJoin:
			if len(matches) == 0 {
				out.Add(t)
			}
		case NestJoin, NestOuterJoin:
			if len(matches) == 0 && mode == NestJoin {
				continue
			}
			nested := NewRelation(s.Schema)
			nested.Add(matches...)
			out.Add(append(t.Clone(), RelV(nested)))
		}
	}
	return out, nil
}

// structIndex answers "which tuples of the inner relation does this outer
// identifier structurally contain" without comparing it against every one.
// Inner identifiers are sorted by pre (per depth, for the parent predicate)
// with, beside each, the smallest post from there to the end of its run:
// the descendants of (pre, post) are the entries after the first pre greater
// than it whose post is smaller, and once the running minimum reaches post
// no later entry can qualify. On identifiers of one document — where a
// subtree is a contiguous pre range — the scan touches matches only, so a
// join costs O((n + out)·log m) instead of n·m value comparisons; on
// arbitrary identifiers it is still exact, every candidate being confirmed
// by op.Apply. Matches are returned in the inner relation's own order.
type structIndex struct {
	s       *Relation
	li, ri  int
	op      Cmp
	entries []structEntry // sorted by (depth if op == Parent, pre)
	minPost []int32       // minPost[i] = min post over entries[i:] of the same run
	hits    []int         // scratch: positions in s.Tuples of one outer's matches
}

type structEntry struct {
	pre, post, depth int32
	pos              int // position in s.Tuples
}

// newStructIndex builds the index when op is structural and both join
// columns hold only (pre, post, depth) identifiers or ⊥; otherwise (Dewey
// identifiers, mixed kinds, value comparators) it returns nil and the caller
// keeps the nested loop.
func newStructIndex(r, s *Relation, li int, op Cmp, ri int) *structIndex {
	if op != Parent && op != Ancestor {
		return nil
	}
	for _, t := range r.Tuples {
		if k := t[li].Kind; k != ID && k != Null {
			return nil
		}
	}
	ix := &structIndex{s: s, li: li, ri: ri, op: op, entries: make([]structEntry, 0, len(s.Tuples))}
	for pos, u := range s.Tuples {
		switch v := &u[ri]; v.Kind {
		case ID:
			ix.entries = append(ix.entries, structEntry{v.ID.Pre, v.ID.Post, v.ID.Depth, pos})
		case Null:
		default:
			return nil
		}
	}
	slices.SortFunc(ix.entries, func(a, b structEntry) int {
		if op == Parent && a.depth != b.depth {
			return cmp.Compare(a.depth, b.depth)
		}
		if a.pre != b.pre {
			return cmp.Compare(a.pre, b.pre)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	ix.minPost = make([]int32, len(ix.entries))
	for i := len(ix.entries) - 1; i >= 0; i-- {
		e := ix.entries[i]
		ix.minPost[i] = e.post
		// A run is all entries for the ancestor predicate, one depth for
		// the parent predicate.
		if i+1 < len(ix.entries) && (op != Parent || e.depth == ix.entries[i+1].depth) && ix.minPost[i+1] < e.post {
			ix.minPost[i] = ix.minPost[i+1]
		}
	}
	return ix
}

func (ix *structIndex) matchesOf(t Tuple) []Tuple {
	v := &t[ix.li]
	if v.Kind != ID {
		return nil
	}
	id := v.ID
	// First entry of the run with pre > id.Pre.
	start := sort.Search(len(ix.entries), func(i int) bool {
		e := ix.entries[i]
		if ix.op == Parent && e.depth != id.Depth+1 {
			return e.depth > id.Depth+1
		}
		return e.pre > id.Pre
	})
	ix.hits = ix.hits[:0]
	for i := start; i < len(ix.entries) && ix.minPost[i] < id.Post; i++ {
		e := ix.entries[i]
		if ix.op == Parent && e.depth != id.Depth+1 {
			break
		}
		if e.post < id.Post && ix.op.Apply(*v, ix.s.Tuples[e.pos][ix.ri]) {
			ix.hits = append(ix.hits, e.pos)
		}
	}
	if len(ix.hits) == 0 {
		return nil
	}
	slices.Sort(ix.hits)
	matches := make([]Tuple, len(ix.hits))
	for i, pos := range ix.hits {
		matches[i] = ix.s.Tuples[pos]
	}
	return matches
}

// mapJoin applies the join inside the nested collection reached by lidx,
// implementing map(op, r, s, A1...Ak, B) of §1.2.2: tuples whose nested
// collections end up empty are eliminated (for non-outer modes).
func mapJoin(r, s *Relation, lidx []int, op Cmp, ri int, mode JoinMode, nestAs string) (*Relation, error) {
	outSchema, err := mapJoinSchema(r.Schema, s.Schema, lidx, mode, nestAs)
	if err != nil {
		return nil, err
	}
	out := NewRelation(outSchema)
	for _, t := range r.Tuples {
		nts, err := mapJoinTuple(t, s, lidx, op, ri, mode, nestAs)
		if err != nil {
			return nil, err
		}
		out.Add(nts...)
	}
	return out, nil
}

func mapJoinSchema(left, right *Schema, lidx []int, mode JoinMode, nestAs string) (*Schema, error) {
	out := &Schema{Attrs: append([]Attr{}, left.Attrs...)}
	cur := out
	for i := 0; i < len(lidx)-1; i++ {
		j := lidx[i]
		inner := cur.Attrs[j].Nested
		if inner == nil {
			return nil, fmt.Errorf("algebra: map join path crosses atomic attribute")
		}
		var innerOut *Schema
		if i == len(lidx)-2 {
			switch mode {
			case InnerJoin, OuterJoin:
				innerOut = inner.Concat(right)
			case SemiJoin, AntiJoin:
				innerOut = &Schema{Attrs: append([]Attr{}, inner.Attrs...)}
			case NestJoin, NestOuterJoin:
				innerOut = &Schema{Attrs: append(append([]Attr{}, inner.Attrs...), Attr{Name: nestAs, Nested: right})}
			}
		} else {
			innerOut = &Schema{Attrs: append([]Attr{}, inner.Attrs...)}
		}
		cur.Attrs[j] = Attr{Name: cur.Attrs[j].Name, Nested: innerOut}
		cur = innerOut
	}
	return out, nil
}

func mapJoinTuple(t Tuple, s *Relation, lidx []int, op Cmp, ri int, mode JoinMode, nestAs string) ([]Tuple, error) {
	j := lidx[0]
	if len(lidx) == 1 {
		// Innermost: join this tuple against s.
		var matches []Tuple
		for _, u := range s.Tuples {
			if op.Apply(t[j], u[ri]) {
				matches = append(matches, u)
			}
		}
		switch mode {
		case InnerJoin:
			out := make([]Tuple, 0, len(matches))
			for _, u := range matches {
				out = append(out, t.Concat(u))
			}
			return out, nil
		case OuterJoin:
			if len(matches) == 0 {
				return []Tuple{t.Concat(nullTuple(s.Schema))}, nil
			}
			out := make([]Tuple, 0, len(matches))
			for _, u := range matches {
				out = append(out, t.Concat(u))
			}
			return out, nil
		case SemiJoin:
			if len(matches) > 0 {
				return []Tuple{t}, nil
			}
			return nil, nil
		case AntiJoin:
			if len(matches) == 0 {
				return []Tuple{t}, nil
			}
			return nil, nil
		case NestJoin, NestOuterJoin:
			if len(matches) == 0 && mode == NestJoin {
				return nil, nil
			}
			nested := NewRelation(s.Schema)
			nested.Add(matches...)
			return []Tuple{append(t.Clone(), RelV(nested))}, nil
		}
		return nil, nil
	}
	v := t[j]
	if v.Kind != Rel {
		return nil, fmt.Errorf("algebra: map join path expects nested collection")
	}
	inner := NewRelation(nil)
	for _, it := range v.Rel.Tuples {
		nts, err := mapJoinTuple(it, s, lidx[1:], op, ri, mode, nestAs)
		if err != nil {
			return nil, err
		}
		inner.Add(nts...)
	}
	switch mode {
	case OuterJoin, NestOuterJoin, AntiJoin:
		// outer modes keep the tuple even with empty inner collections
	default:
		if inner.Len() == 0 {
			return nil, nil
		}
	}
	out := t.Clone()
	out[j] = RelV(inner)
	return []Tuple{out}, nil
}

// Nest packs all tuples of r into one tuple with a single collection
// attribute named as; this is the n operator used when translating element
// constructors (§3.3.2).
func Nest(r *Relation, as string) *Relation {
	out := NewRelation((&Schema{}).WithNested(as, r.Schema))
	inner := NewRelation(r.Schema)
	inner.Add(r.Tuples...)
	out.Add(Tuple{RelV(inner)})
	return out
}

// Unnest implements u_B: each tuple is replaced by one tuple per member of
// its collection attribute named name, concatenating outer and inner values.
func Unnest(r *Relation, name string) (*Relation, error) {
	j := r.Schema.Index(name)
	if j < 0 || r.Schema.Attrs[j].Nested == nil {
		return nil, fmt.Errorf("algebra: unnest: %q is not a collection attribute", name)
	}
	outSchema := &Schema{}
	for i, a := range r.Schema.Attrs {
		if i != j {
			outSchema.Attrs = append(outSchema.Attrs, a)
		}
	}
	outSchema.Attrs = append(outSchema.Attrs, r.Schema.Attrs[j].Nested.Attrs...)
	out := NewRelation(outSchema)
	for _, t := range r.Tuples {
		v := t[j]
		if v.Kind != Rel {
			continue
		}
		outer := make(Tuple, 0, len(t)-1)
		for i, val := range t {
			if i != j {
				outer = append(outer, val)
			}
		}
		for _, it := range v.Rel.Tuples {
			out.Add(outer.Concat(it))
		}
	}
	return out, nil
}

// GroupBy implements γ: tuples sharing the listed atomic attributes are
// grouped; the remaining attributes are packed into a collection named as.
func GroupBy(r *Relation, as string, keys ...string) (*Relation, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		j := r.Schema.Index(k)
		if j < 0 {
			return nil, fmt.Errorf("algebra: groupby: no attribute %q", k)
		}
		keyIdx[i] = j
	}
	restSchema := &Schema{}
	var restIdx []int
	for i, a := range r.Schema.Attrs {
		isKey := false
		for _, j := range keyIdx {
			if i == j {
				isKey = true
				break
			}
		}
		if !isKey {
			restSchema.Attrs = append(restSchema.Attrs, a)
			restIdx = append(restIdx, i)
		}
	}
	outSchema := &Schema{}
	for _, j := range keyIdx {
		outSchema.Attrs = append(outSchema.Attrs, r.Schema.Attrs[j])
	}
	outSchema.WithNested(as, restSchema)
	out := NewRelation(outSchema)
	var groups []Tuple // key tuples in first-seen order
	groupRel := map[int]*Relation{}
	for _, t := range r.Tuples {
		key := make(Tuple, len(keyIdx))
		for i, j := range keyIdx {
			key[i] = t[j]
		}
		gi := -1
		for i, g := range groups {
			if g.Equal(key) {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, key)
			groupRel[gi] = NewRelation(restSchema)
		}
		rest := make(Tuple, len(restIdx))
		for i, j := range restIdx {
			rest[i] = t[j]
		}
		groupRel[gi].Add(rest)
	}
	for i, g := range groups {
		out.Add(append(g.Clone(), RelV(groupRel[i])))
	}
	return out, nil
}

// OrderDesc is an order descriptor (§1.2.3): a list of dotted attribute
// paths; the output is sorted by each in turn, descending into nested
// collections for dotted paths.
type OrderDesc []string

// Sort returns a copy of r ordered by the descriptor. Dotted paths sort
// the nested collections inside each tuple by their tail attribute, and the
// outer tuples by the heads.
func Sort(r *Relation, desc OrderDesc) (*Relation, error) {
	out := NewRelation(r.Schema)
	for _, t := range r.Tuples {
		out.Add(t.Clone())
	}
	// First sort nested collections for dotted paths.
	for _, p := range desc {
		idx, err := r.Schema.Resolve(p)
		if err != nil {
			return nil, err
		}
		if len(idx) > 1 {
			for _, t := range out.Tuples {
				sortNested(t, idx)
			}
		}
	}
	// Then sort the top level by the first components.
	sort.SliceStable(out.Tuples, func(i, j int) bool {
		for _, p := range desc {
			idx, _ := r.Schema.Resolve(p)
			a := topSortKey(out.Tuples[i], idx)
			b := topSortKey(out.Tuples[j], idx)
			if cmp, ok := a.Compare(b); ok && cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return out, nil
}

func sortNested(t Tuple, idx []int) {
	if len(idx) <= 1 {
		return
	}
	v := t[idx[0]]
	if v.Kind != Rel {
		return
	}
	if len(idx) == 2 {
		sort.SliceStable(v.Rel.Tuples, func(i, j int) bool {
			cmp, ok := v.Rel.Tuples[i][idx[1]].Compare(v.Rel.Tuples[j][idx[1]])
			return ok && cmp < 0
		})
		return
	}
	for _, it := range v.Rel.Tuples {
		sortNested(it, idx[1:])
	}
}

func topSortKey(t Tuple, idx []int) Value {
	cur := t
	for i, j := range idx {
		if i == len(idx)-1 {
			return cur[j]
		}
		v := cur[j]
		if v.Kind != Rel || v.Rel.Len() == 0 {
			return NullValue
		}
		cur = v.Rel.Tuples[0]
	}
	return NullValue
}

// RenameSchema returns a copy of r whose top-level attributes are renamed by
// prefixing; used to disambiguate self-joins (main₁, main₂ … in §2.1).
func RenameSchema(r *Relation, prefix string) *Relation {
	out := NewRelation(&Schema{Attrs: make([]Attr, len(r.Schema.Attrs))})
	for i, a := range r.Schema.Attrs {
		out.Schema.Attrs[i] = Attr{Name: prefix + a.Name, Nested: a.Nested}
	}
	out.Tuples = r.Tuples
	return out
}
