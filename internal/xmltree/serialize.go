package xmltree

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Serialize renders the document back to XML text.
func (d *Document) Serialize() string {
	var sb strings.Builder
	if d.Root != nil {
		serializeNode(&sb, d.Root)
	}
	return sb.String()
}

func serializeNode(sb *strings.Builder, n *Node) {
	switch n.Kind {
	case Text:
		escapeText(sb, n.Text)
	case Attribute:
		sb.WriteString(n.Label[1:])
		sb.WriteString(`="`)
		escapeAttr(sb, n.Text)
		sb.WriteByte('"')
	case Element:
		sb.WriteByte('<')
		sb.WriteString(n.Label)
		var hasContent bool
		for _, c := range n.Children {
			if c.Kind == Attribute {
				sb.WriteByte(' ')
				serializeNode(sb, c)
			} else {
				hasContent = true
			}
		}
		if !hasContent {
			sb.WriteString("/>")
			return
		}
		sb.WriteByte('>')
		for _, c := range n.Children {
			if c.Kind != Attribute {
				serializeNode(sb, c)
			}
		}
		sb.WriteString("</")
		sb.WriteString(n.Label)
		sb.WriteByte('>')
	}
}

func escapeText(sb *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '&':
			sb.WriteString("&amp;")
		default:
			sb.WriteByte(s[i])
		}
	}
}

// AppendEscapedText appends s to dst escaped as escapeText escapes a text
// node, for writers that build serialized output in a byte buffer.
func AppendEscapedText(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

func escapeAttr(sb *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			sb.WriteString("&lt;")
		case '&':
			sb.WriteString("&amp;")
		case '"':
			sb.WriteString("&quot;")
		default:
			sb.WriteByte(s[i])
		}
	}
}

// NewElement builds an element node with the given label and children;
// convenience for programmatic document construction (tests, generators).
func NewElement(label string, children ...*Node) *Node {
	return &Node{Kind: Element, Label: label, Children: children}
}

// NewText builds a text node.
func NewText(text string) *Node {
	return &Node{Kind: Text, Label: "#text", Text: text}
}

// NewAttr builds an attribute node; the '@' prefix is added if missing.
func NewAttr(name, value string) *Node {
	if !strings.HasPrefix(name, "@") {
		name = "@" + name
	}
	return &Node{Kind: Attribute, Label: name, Text: value}
}

// NewDocument wraps a root element into a relabeled document.
func NewDocument(name string, root *Node) *Document {
	doc := &Document{Root: root, Name: name}
	doc.Relabel()
	return doc
}

// CanonicalContent reports whether s is already in the serializer's own
// output form: exactly the text Serialize would emit for the document Parse
// builds from s. It holds for a single root element with nothing before or
// after it, start tags written `<name attr="v"...>` or `<name.../>` with one
// space before each attribute and none elsewhere, attribute values in double
// quotes holding no raw '<' and only the entities escapeAttr emits, text
// holding no raw '>' and only the entities escapeText emits, every text run
// carrying a non-space character, no empty `<a></a>` pair, and no comment,
// processing instruction, CDATA section or DOCTYPE. A true result therefore
// implies Parse(s) succeeds and Serialize(Parse(s)) == s, which lets callers
// splice s into an output document without building its tree. The scan is a
// single pass and allocates nothing; false only means "not provably
// canonical" — callers then take the Parse route.
func CanonicalContent(s string) bool {
	end, ok := canonicalElement(s, 0)
	return ok && end == len(s)
}

// canonicalElement scans one element starting at s[pos] == '<' and returns
// the offset just past it.
func canonicalElement(s string, pos int) (int, bool) {
	if pos >= len(s) || s[pos] != '<' {
		return 0, false
	}
	nameStart := pos + 1
	pos = scanName(s, nameStart)
	if pos == nameStart {
		return 0, false
	}
	name := s[nameStart:pos]
	for pos < len(s) && s[pos] == ' ' {
		attrStart := pos + 1
		pos = scanName(s, attrStart)
		if pos == attrStart || pos+1 >= len(s) || s[pos] != '=' || s[pos+1] != '"' {
			return 0, false
		}
		var ok bool
		if pos, ok = canonicalAttrValue(s, pos+2); !ok {
			return 0, false
		}
	}
	if pos >= len(s) {
		return 0, false
	}
	if s[pos] == '/' {
		if pos+1 < len(s) && s[pos+1] == '>' {
			return pos + 2, true
		}
		return 0, false
	}
	if s[pos] != '>' {
		return 0, false
	}
	pos++
	// Content: text runs and child elements up to the matching end tag. An
	// element written with an end tag must own at least one child node, or
	// the serializer would have collapsed it to <name/>.
	children := 0
	for {
		var ok bool
		textStart := pos
		if pos, ok = canonicalText(s, pos); !ok {
			return 0, false
		}
		if pos > textStart {
			children++
		}
		// canonicalText stops at '<' only.
		if pos+1 >= len(s) {
			return 0, false
		}
		if s[pos+1] == '/' {
			if children == 0 {
				return 0, false
			}
			pos += 2
			if len(s)-pos <= len(name) || s[pos:pos+len(name)] != name || s[pos+len(name)] != '>' {
				return 0, false
			}
			return pos + len(name) + 1, true
		}
		// '<!' and '<?' fail scanName inside the recursive call.
		if pos, ok = canonicalElement(s, pos); !ok {
			return 0, false
		}
		children++
	}
}

// scanName returns the offset past the XML name starting at pos (pos itself
// when no name starts there), with the parser's bytewise name classes.
func scanName(s string, pos int) int {
	if pos >= len(s) || !isNameByte(s[pos], true) {
		return pos
	}
	pos++
	for pos < len(s) && isNameByte(s[pos], false) {
		pos++
	}
	return pos
}

// canonicalAttrValue scans a double-quoted attribute value whose opening
// quote was just consumed and returns the offset past the closing quote.
func canonicalAttrValue(s string, pos int) (int, bool) {
	for pos < len(s) {
		switch s[pos] {
		case '"':
			return pos + 1, true
		case '<':
			return 0, false
		case '&':
			n := entityLen(s[pos:], "&lt;", "&amp;", "&quot;")
			if n == 0 {
				return 0, false
			}
			pos += n
		default:
			pos++
		}
	}
	return 0, false
}

// canonicalText scans a text run up to the next '<' and returns its offset.
// A non-empty run must hold a character strings.TrimSpace would keep, or the
// parser drops the run as inter-element whitespace.
func canonicalText(s string, pos int) (int, bool) {
	start := pos
	solid := false
	for pos < len(s) {
		c := s[pos]
		switch {
		case c == '<':
			return pos, solid || pos == start
		case c == '>':
			return 0, false
		case c == '&':
			n := entityLen(s[pos:], "&lt;", "&gt;", "&amp;")
			if n == 0 {
				return 0, false
			}
			pos += n
			solid = true
		case c < utf8.RuneSelf:
			if !solid && !asciiSpace[c] {
				solid = true
			}
			pos++
		case solid:
			pos++
		default:
			r, size := utf8.DecodeRuneInString(s[pos:])
			if !unicode.IsSpace(r) {
				solid = true
			}
			pos += size
		}
	}
	return 0, false // unterminated element
}

// asciiSpace marks the ASCII bytes strings.TrimSpace trims.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// entityLen returns the length of whichever of the entities s starts with,
// or 0.
func entityLen(s string, entities ...string) int {
	for _, e := range entities {
		if strings.HasPrefix(s, e) {
			return len(e)
		}
	}
	return 0
}
