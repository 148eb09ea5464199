package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

const bibXML = `<library>
  <book year="1999">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Suciu</author>
  </book>
  <book>
    <title>The Syntactic Web</title>
    <author>Tom Lerners-Bee</author>
  </book>
  <phdthesis year="2004">
    <title>The Web: next generation</title>
    <author>Jim Smith</author>
  </phdthesis>
</library>`

func TestParseBasicStructure(t *testing.T) {
	doc, err := Parse("bib.xml", bibXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "library" {
		t.Fatalf("root = %q, want library", doc.Root.Label)
	}
	elems := doc.Root.Elements()
	if len(elems) != 3 {
		t.Fatalf("got %d children, want 3", len(elems))
	}
	if elems[0].Label != "book" || elems[2].Label != "phdthesis" {
		t.Fatalf("child labels wrong: %v %v", elems[0].Label, elems[2].Label)
	}
	year := elems[0].Attr("year")
	if year == nil || year.Text != "1999" {
		t.Fatalf("year attr = %v", year)
	}
	if got := elems[0].Elements()[0].Value(); got != "Data on the Web" {
		t.Fatalf("title value = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a>",
		"<a></b>",
		"<a attr=unquoted></a>",
		"<a><b></a></b>",
		"<a>&unknown;</a>",
		"<a/><b/>",
		"text only",
		"<a ><b/><",
	}
	for _, src := range cases {
		if _, err := Parse("bad.xml", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	doc := MustParse("e.xml", `<a x="&lt;&amp;&quot;">A &amp; B &#65;&#x42;<![CDATA[<raw>]]></a>`)
	if got := doc.Root.Attr("x").Text; got != `<&"` {
		t.Fatalf("attr = %q", got)
	}
	if got := doc.Root.Value(); got != "A & B AB<raw>" {
		t.Fatalf("value = %q", got)
	}
}

func TestParseSkipsPrologCommentsPI(t *testing.T) {
	src := `<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><!-- c --><a><!-- inner --><?pi data?><b/></a>`
	doc := MustParse("p.xml", src)
	if doc.Root.Label != "a" || len(doc.Root.Elements()) != 1 {
		t.Fatalf("unexpected structure: %s", doc.Serialize())
	}
}

func TestPrePostDepthInvariants(t *testing.T) {
	doc := MustParse("bib.xml", bibXML)
	seenPre := map[int32]bool{}
	doc.Walk(func(n *Node) bool {
		if seenPre[n.ID.Pre] {
			t.Errorf("duplicate pre label %d", n.ID.Pre)
		}
		seenPre[n.ID.Pre] = true
		for _, c := range n.Children {
			if !n.ID.ParentOf(c.ID) {
				t.Errorf("%s not ParentOf %s", n.ID, c.ID)
			}
			if !n.ID.AncestorOf(c.ID) {
				t.Errorf("%s not AncestorOf %s", n.ID, c.ID)
			}
			if !n.Dewey.ParentOf(c.Dewey) {
				t.Errorf("dewey %s not parent of %s", n.Dewey, c.Dewey)
			}
		}
		return true
	})
	if len(seenPre) != doc.Size() {
		t.Fatalf("pre labels %d != size %d", len(seenPre), doc.Size())
	}
}

func TestNodeIDAxes(t *testing.T) {
	doc := MustParse("bib.xml", bibXML)
	books := doc.Root.Elements()
	b1, b2 := books[0], books[1]
	if !b1.ID.Precedes(b2.ID) {
		t.Error("book1 should precede book2")
	}
	if !b2.ID.Follows(b1.ID) {
		t.Error("book2 should follow book1")
	}
	title1 := b1.Elements()[0]
	if b1.ID.Precedes(title1.ID) {
		t.Error("ancestor must not 'precede' its descendant")
	}
	if !doc.Root.ID.AncestorOf(title1.ID) {
		t.Error("root must be ancestor of title")
	}
	if doc.Root.ID.ParentOf(title1.ID) {
		t.Error("root must not be parent of title")
	}
}

func TestNodeByPre(t *testing.T) {
	doc := MustParse("bib.xml", bibXML)
	doc.Walk(func(n *Node) bool {
		if doc.NodeByPre(n.ID.Pre) != n {
			t.Errorf("NodeByPre(%d) mismatch", n.ID.Pre)
		}
		return true
	})
	if doc.NodeByPre(0) != nil || doc.NodeByPre(int32(doc.Size()+1)) != nil {
		t.Error("out-of-range NodeByPre should be nil")
	}
}

func TestValueConcatenatesDescendantText(t *testing.T) {
	doc := MustParse("v.xml", `<a>x<b>y<c>z</c></b>w</a>`)
	if got := doc.Root.Value(); got != "xyzw" {
		t.Fatalf("value = %q, want xyzw", got)
	}
}

func TestContentRoundTrip(t *testing.T) {
	doc := MustParse("bib.xml", bibXML)
	again := MustParse("bib2.xml", doc.Serialize())
	if doc.Size() != again.Size() {
		t.Fatalf("round trip size %d != %d", doc.Size(), again.Size())
	}
	if doc.Serialize() != again.Serialize() {
		t.Fatal("serialize not stable")
	}
}

func TestContentOfLeaf(t *testing.T) {
	doc := MustParse("c.xml", `<a><t>Data &amp; Co</t></a>`)
	want := `<t>Data &amp; Co</t>`
	if got := doc.Root.Elements()[0].Content(); got != want {
		t.Fatalf("content = %q, want %q", got, want)
	}
}

func TestPath(t *testing.T) {
	doc := MustParse("bib.xml", bibXML)
	title := doc.Root.Elements()[0].Elements()[0]
	if got := title.Path(); got != "/library/book/title" {
		t.Fatalf("path = %q", got)
	}
	year := doc.Root.Elements()[0].Attr("year")
	if got := year.Path(); got != "/library/book/@year" {
		t.Fatalf("attr path = %q", got)
	}
}

func TestDeweyNavigation(t *testing.T) {
	d := Dewey{1, 3, 2}
	if got := d.ParentID(); got.String() != "1.3" {
		t.Fatalf("parent = %s", got)
	}
	if got := d.AncestorID(1); got.String() != "1" {
		t.Fatalf("ancestor(1) = %s", got)
	}
	if d.AncestorID(3) != nil || d.AncestorID(0) != nil {
		t.Fatal("out-of-range ancestor must be nil")
	}
	if (Dewey{1}).ParentID() != nil {
		t.Fatal("root parent must be nil")
	}
	if !(Dewey{1, 3}).AncestorOf(d) || (Dewey{1, 2}).AncestorOf(d) {
		t.Fatal("AncestorOf wrong")
	}
	if d.Compare(Dewey{1, 3}) != 1 || (Dewey{1, 3}).Compare(d) != -1 || d.Compare(d.Clone()) != 0 {
		t.Fatal("Compare wrong")
	}
}

func TestParseDewey(t *testing.T) {
	d, err := ParseDewey("1.4.2")
	if err != nil || d.String() != "1.4.2" {
		t.Fatalf("round trip failed: %v %v", d, err)
	}
	for _, bad := range []string{"", "1..2", "0", "1.x", "-1"} {
		if _, err := ParseDewey(bad); err == nil {
			t.Errorf("ParseDewey(%q) should fail", bad)
		}
	}
}

// Property: Dewey document order agrees with pre order for every node pair.
func TestDeweyOrderMatchesPreOrder(t *testing.T) {
	doc := MustParse("bib.xml", bibXML)
	var nodes []*Node
	doc.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
	for _, a := range nodes {
		for _, b := range nodes {
			cmp := a.Dewey.Compare(b.Dewey)
			switch {
			case a.ID.Pre < b.ID.Pre && cmp != -1:
				t.Fatalf("order mismatch %s vs %s", a.Dewey, b.Dewey)
			case a.ID.Pre > b.ID.Pre && cmp != 1:
				t.Fatalf("order mismatch %s vs %s", a.Dewey, b.Dewey)
			case a.ID.Pre == b.ID.Pre && cmp != 0:
				t.Fatalf("order mismatch %s vs %s", a.Dewey, b.Dewey)
			}
			if a.ID.AncestorOf(b.ID) != a.Dewey.AncestorOf(b.Dewey) {
				t.Fatalf("ancestor mismatch %s vs %s", a.Dewey, b.Dewey)
			}
		}
	}
}

// Property: escaping survives a parse/serialize round trip for arbitrary text.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !validUTF8ish(s) {
			return true
		}
		root := NewElement("r", NewText(s))
		doc := NewDocument("q.xml", root)
		if strings.TrimSpace(s) == "" {
			return true // whitespace-only text is dropped by design
		}
		again, err := Parse("q2.xml", doc.Serialize())
		if err != nil {
			return false
		}
		return again.Root.Value() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func validUTF8ish(s string) bool {
	for _, r := range s {
		if r == 0xFFFD || r < 0x09 || r == 0x0b || r == 0x0c || (r > 0x0d && r < 0x20) {
			return false
		}
	}
	return true
}

func TestRelabelAfterEdit(t *testing.T) {
	doc := MustParse("e.xml", `<a><b/></a>`)
	doc.Root.Children = append(doc.Root.Children, NewElement("c"))
	doc.Relabel()
	c := doc.Root.Elements()[1]
	if c.Parent != doc.Root || c.ID.IsZero() || c.Doc() != doc {
		t.Fatal("relabel did not wire new node")
	}
	if !doc.Root.Elements()[0].ID.Precedes(c.ID) {
		t.Fatal("new node must follow existing child")
	}
}

func TestDescendantsAndWalkStop(t *testing.T) {
	doc := MustParse("d.xml", `<a><b><c/></b><d/></a>`)
	if got := len(doc.Root.Descendants()); got != 3 {
		t.Fatalf("descendants = %d, want 3", got)
	}
	count := 0
	doc.Walk(func(n *Node) bool {
		count++
		return n.Label != "b" // abort the whole walk at b
	})
	if count != 2 { // a, b — abort semantics stop the traversal entirely
		t.Fatalf("walk visited %d, want 2", count)
	}
}

func TestCanonicalContent(t *testing.T) {
	canonical := []string{
		`<a/>`,
		`<a>x</a>`,
		`<a id="1" n="two words"/>`,
		`<a t="&lt;&amp;&quot; > '">x &lt; y &gt; z &amp; w</a>`,
		`<a><b/>tail<c k="v">deep<d/></c></a>`,
		"<a> x</a>",
		"<a>\xff</a>", // invalid UTF-8 is not space: the parser keeps it
		`<ns:a-b.c _x="1">é</ns:a-b.c>`,
		`<article key="k"><title>T<i>x</i> y</title><year>1999</year></article>`,
	}
	for _, s := range canonical {
		if !CanonicalContent(s) {
			t.Errorf("CanonicalContent(%q) = false, want true", s)
		}
		doc, err := Parse("c", s)
		if err != nil || doc.Serialize() != s {
			t.Errorf("%q is not a Parse→Serialize fixpoint (err %v)", s, err)
		}
	}
	notCanonical := []string{
		``, `x`, ` <a/>`, `<a/> `, `<a/><b/>`, `<a/>x`,
		`<a></a>`, `<a> </a>`, `<a> <b/></a>`, `<a><b/> </a>`, "<a> </a>", "<a>\n</a>",
		`<a />`, `<a id='1'/>`, `<a id = "1"/>`, `<a  id="1"/>`, `<a id="1" />`, `<a id="1"b="2"/>`, `<a id="1"`,
		`<a t="<"/>`, `<a t="&gt;"/>`, `<a t="&apos;"/>`, `<a t="&#65;"/>`, `<a t="&"/>`,
		`<a>x > y</a>`, `<a>&quot;</a>`, `<a>&apos;</a>`, `<a>&#x41;</a>`, `<a>&bogus;</a>`, `<a>&amp</a>`,
		`<a><!-- c --></a>`, `<a>x<!-- c -->y</a>`, `<a><![CDATA[x]]></a>`, `<a><?pi?></a>`,
		`<?xml version="1.0"?><a/>`, `<!DOCTYPE a><a/>`, `<!-- c --><a/>`,
		`<a>x</a >`, `<a>x</b>`, `<a>x</ab>`, `<a>x</a`, `<a>x`, `<a`, `<`, `<1a/>`, `<a><b></a>`,
	}
	for _, s := range notCanonical {
		if CanonicalContent(s) {
			t.Errorf("CanonicalContent(%q) = true, want false", s)
		}
	}
	// Every serializer output of a parsed document is canonical unless it
	// holds a whitespace-only text node (which a reparse would drop).
	for _, src := range []string{
		`<r a='1'><x>&#65; &lt;</x><!-- gone --><y><![CDATA[a<b]]></y></r>`,
		`<?xml version="1.0"?><!DOCTYPE r><r>  <x/>  text  </r>`,
	} {
		if out := MustParse("d", src).Serialize(); !CanonicalContent(out) {
			t.Errorf("serializer output %q (of %q) is not canonical", out, src)
		}
	}
	if out := MustParse("d", `<r><![CDATA[ ]]></r>`).Serialize(); CanonicalContent(out) {
		t.Errorf("%q reparses without its whitespace text node, so it must not count as canonical", out)
	}
}
