package algebra

import (
	"strings"
	"testing"

	"xamdb/internal/xmltree"
)

// oracle renders rel through the retained reference path.
func oracle(rel *Relation, templ *Template) (string, int, error) {
	nodes, err := XMLize(rel, templ)
	if err != nil {
		return "", 0, err
	}
	return SerializeNodes(nodes), len(nodes), nil
}

// writeAll renders rel through a ResultWriter, row-major or column-major.
func writeAll(rel *Relation, templ *Template, columns bool) (string, int, error) {
	w := NewResultWriter(templ, rel.Schema)
	var (
		buf   []byte
		nodes int
	)
	cols := rel.Columns()
	for i, t := range rel.Tuples {
		var (
			n   int
			err error
		)
		if columns {
			buf, n, err = w.AppendColumns(buf, cols.Cols, i)
		} else {
			buf, n, err = w.AppendTuple(buf, t)
		}
		if err != nil {
			return "", 0, err
		}
		nodes += n
	}
	return string(buf), nodes, nil
}

// checkWriter asserts writer == oracle, in output, node count and error.
func checkWriter(t *testing.T, rel *Relation, templ *Template) {
	t.Helper()
	want, wantNodes, wantErr := oracle(rel, templ)
	for _, columns := range []bool{false, true} {
		got, gotNodes, gotErr := writeAll(rel, templ, columns)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("columns=%v template %s over %s: writer error %v, oracle error %v", columns, templ, rel, gotErr, wantErr)
		}
		if got != want || gotNodes != wantNodes {
			t.Fatalf("columns=%v template %s over %s:\nwriter %d nodes %q\noracle %d nodes %q",
				columns, templ, rel, gotNodes, got, wantNodes, want)
		}
	}
}

// fuzzSchema is the fixed shape the fuzzer fills: atomic and raw cells at
// three nesting levels.
func fuzzSchema() (top, mid, low *Schema) {
	low = NewSchema("z.Cont")
	mid = NewSchema("y.Val", "y.Cont").WithNested("m", low)
	top = NewSchema("x.Val", "x.Cont").WithNested("k", mid)
	top.Attrs = append(top.Attrs, Attr{Name: "x.ID"})
	return top, mid, low
}

// chooser turns fuzz bytes into bounded choices; exhausted input yields 0.
type chooser struct {
	data []byte
	pos  int
}

func (c *chooser) pick(n int) int {
	if c.pos >= len(c.data) || n <= 0 {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b) % n
}

var fuzzPaths = []string{"x.Val", "x.Cont", "k", "x.ID", "y.Val", "y.Cont", "m", "z.Cont", "k.y.Cont", "k.m.z.Cont", "k.m", "nope"}

func (c *chooser) template(depth int) *Template {
	kind := c.pick(5)
	if depth >= 4 && kind != 1 && kind != 2 {
		kind = 1
	}
	path := fuzzPaths[c.pick(len(fuzzPaths))]
	switch kind {
	case 1:
		return Field(path)
	case 2:
		return RawField(path)
	case 3:
		t := ForEach(path)
		for i, n := 0, c.pick(3); i < n; i++ {
			t.Children = append(t.Children, c.template(depth+1))
		}
		return t
	default:
		t := Elem([]string{"", "r", "out"}[c.pick(3)])
		for i, n := 0, c.pick(4); i < n; i++ {
			t.Children = append(t.Children, c.template(depth+1))
		}
		return t
	}
}

func (c *chooser) cell(pieces []string) Value {
	switch k := c.pick(len(pieces) + 4); k {
	case 0:
		return NullValue
	case 1:
		return I(int64(c.pick(200)) - 100)
	case 2:
		return IDV(xmltree.NodeID{Pre: int32(c.pick(9)), Post: int32(c.pick(9)), Depth: 2})
	case 3:
		return S("")
	default:
		return S(pieces[k-4])
	}
}

func (c *chooser) relation(pieces []string) *Relation {
	top, mid, low := fuzzSchema()
	rel := NewRelation(top)
	for i, n := 0, c.pick(4); i < n; i++ {
		var k Value
		if c.pick(5) > 0 { // else a ⊥ collection
			midRel := NewRelation(mid)
			for j, nm := 0, c.pick(3); j < nm; j++ {
				lowRel := NewRelation(low)
				for l, nl := 0, c.pick(3); l < nl; l++ {
					lowRel.Add(Tuple{c.cell(pieces)})
				}
				midRel.Add(Tuple{c.cell(pieces), c.cell(pieces), RelV(lowRel)})
			}
			k = RelV(midRel)
		}
		rel.Add(Tuple{c.cell(pieces), c.cell(pieces), k, c.cell(pieces)})
	}
	return rel
}

// FuzzResultWriter checks the production writer against the retained
// XMLize → SerializeNodes oracle on generated templates and relations, and
// the canonical-content rule the writer's splice rests on. shape drives the
// template and relation generators; cont supplies the cell texts, split on
// U+001F.
func FuzzResultWriter(f *testing.F) {
	seeds := []string{
		`<a>x</a>`,
		`<a><!-- c --><b/></a>`,
		`<a><![CDATA[x<y]]></a>`,
		`<a>&apos;q&apos; &#65;&#x42;</a>`,
		`<a> </a>` + "\x1f" + `<a>  <b/>  </a>`,
		`<a id="1" n='2'/>` + "\x1f" + `<a id="1"/>` + "\x1f" + `<a/>`,
		`<a></a>` + "\x1f" + `<a ></a>` + "\x1f" + `<a/> `,
		`<a>x &lt; y &gt; z &amp; w</a>` + "\x1f" + `<a t="&quot;&lt;&amp;">&gt;</a>`,
		`<a>x > y</a>` + "\x1f" + `<a t="<">y</a>` + "\x1f" + `<a t="&gt;"/>`,
		`plain < text & more` + "\x1f" + `<unclosed>` + "\x1f" + `<a>x</b>`,
		"<a>\u00a0</a>" + "\x1f" + "<a>\u00a0x</a>" + "\x1f" + "<a>\xff</a>",
		`<?xml version="1.0"?><a/>` + "\x1f" + `<!DOCTYPE a><a/>` + "\x1f" + `<a><?pi x?></a>`,
		`<article key="k"><title>T<i>x</i> y</title><year>1999</year></article>`,
	}
	shapes := [][]byte{
		nil,
		{0, 1, 2, 0, 3, 1, 2, 2, 1, 4, 5, 6},
		{4, 1, 3, 3, 2, 1, 2, 6, 2, 7, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{0, 2, 2, 3, 10, 1, 2, 7, 2, 2, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7},
		{3, 2, 1, 2, 5, 0, 1, 1, 3, 6, 1, 2, 7, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9},
		{0, 1, 1, 3, 2, 0, 0, 2, 4, 4, 0, 0, 0, 0, 0, 0},    // <r> whose ForEach produces nothing
		{0, 1, 1, 1, 0, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, // <r> over empty text nodes
		{0, 1, 2, 1, 11, 2, 11, 3},                          // unresolvable path
		{3, 0, 1, 1, 0, 3},                                  // foreach over an atomic attribute
	}
	for _, s := range seeds {
		for _, sh := range shapes {
			f.Add(sh, s)
		}
	}
	f.Fuzz(func(t *testing.T, shape []byte, cont string) {
		pieces := strings.Split(cont, "\x1f")
		for _, s := range pieces {
			if !xmltree.CanonicalContent(s) {
				continue
			}
			doc, err := xmltree.Parse("p", s)
			if err != nil {
				t.Fatalf("CanonicalContent(%q) but Parse fails: %v", s, err)
			}
			if got := doc.Serialize(); got != s {
				t.Fatalf("CanonicalContent(%q) but Serialize(Parse) = %q", s, got)
			}
		}
		c := &chooser{data: shape}
		templ := c.template(0)
		checkWriter(t, c.relation(pieces), templ)
	})
}

func TestResultWriterTemplates(t *testing.T) {
	top, mid, low := fuzzSchema()
	lowRel := NewRelation(low).Add(Tuple{S(`<z>1</z>`)}, Tuple{S(`<z> </z>`)}, Tuple{NullValue})
	midRel := NewRelation(mid).Add(
		Tuple{S("a<b"), S(`<y k="v">t</y>`), RelV(lowRel)},
		Tuple{NullValue, S(`not xml`), RelV(NewRelation(low))},
	)
	rel := NewRelation(top).Add(
		Tuple{S("v&1"), S(`<x><!--c-->1</x>`), RelV(midRel), IDV(xmltree.NodeID{Pre: 1, Post: 2, Depth: 1})},
		Tuple{S(""), NullValue, NullValue, NullValue},
		Tuple{I(7), S(`<x/>`), RelV(NewRelation(mid)), NullValue},
	)
	for _, templ := range []*Template{
		RawField("x.Cont"),
		Field("x.Val"),
		Elem("r"),
		Elem("r", Field("x.Val")),
		Elem("r", RawField("x.Cont"), Elem("", Field("x.ID"), Elem("e"))),
		Elem("r", ForEach("k", Elem("i", Field("y.Val"), RawField("y.Cont"), Field("x.Val")))),
		Elem("r", ForEach("k", ForEach("m", RawField("z.Cont"), Field("y.Val")))),
		Elem("r", RawField("k")),
		Elem("r", Field("k.y.Val"), RawField("k.m.z.Cont"), RawField("k.m")),
		Elem("", Field("x.Val"), Field("x.Val")),
		ForEach("k"),
		ForEach("k", Field("nope")),
		ForEach("x.Val", Field("x.Val")),
		Elem("r", Field("nope")),
		{Kind: TemplateKind(9)},
	} {
		checkWriter(t, rel, templ)
	}
	// An unresolvable path is an error only for rows that reach it.
	checkWriter(t, NewRelation(top), Field("nope"))
}

func TestResultWriterNestedShapeMismatch(t *testing.T) {
	top, _, _ := fuzzSchema()
	narrow := NewRelation(NewSchema("only")).Add(Tuple{S("v")})
	rel := NewRelation(top).Add(Tuple{S("a"), S("b"), RelV(narrow), NullValue})
	w := NewResultWriter(ForEach("k", RawField("y.Cont")), top)
	if _, _, err := w.AppendTuple(nil, rel.Tuples[0]); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("collection narrower than its schema: err = %v, want a shape mismatch", err)
	}
}

// canonicalRows builds n rows of serializer-form content.
func canonicalRows(n int) *Relation {
	rel := NewRelation(NewSchema("t.Cont"))
	for i := 0; i < n; i++ {
		rel.Add(Tuple{S(`<title key="k` + strings.Repeat("x", i%7) + `">A title of ordinary length &amp; shape<i>x</i></title>`)})
	}
	return rel
}

// TestResultWriterAllocations pins the copy budget: canonical content costs
// no allocation per row, only the output buffer's growth.
func TestResultWriterAllocations(t *testing.T) {
	rel := canonicalRows(2000)
	cols := rel.Columns().Cols
	templ := RawField("t.Cont")
	var buf []byte
	allocs := testing.AllocsPerRun(10, func() {
		w := NewResultWriter(templ, rel.Schema)
		buf = buf[:0]
		for i := range rel.Tuples {
			buf, _, _ = w.AppendColumns(buf, cols, i)
		}
	})
	// The writer, its ops, one position path and its frames; buf has grown
	// to size after the first run.
	if allocs > 8 {
		t.Fatalf("writing %d canonical rows allocated %.0f times, want O(1)", len(rel.Tuples), allocs)
	}
	want, _, _ := oracle(rel, templ)
	if string(buf) != want {
		t.Fatal("canonical splice differs from the oracle")
	}
}

var benchSink []byte

func BenchmarkResultWriter(b *testing.B) {
	rel := canonicalRows(2000)
	cols := rel.Columns().Cols
	templ := RawField("t.Cont")
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			w := NewResultWriter(templ, rel.Schema)
			buf = buf[:0]
			for r := range rel.Tuples {
				buf, _, _ = w.AppendColumns(buf, cols, r)
			}
		}
		b.SetBytes(int64(len(buf)))
		benchSink = buf
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		var out string
		for i := 0; i < b.N; i++ {
			nodes, _ := XMLize(rel, templ)
			out = SerializeNodes(nodes)
		}
		b.SetBytes(int64(len(out)))
		benchSink = []byte(out)
	})
}
