package algebra

import (
	"fmt"

	"xamdb/internal/xmltree"
)

// ResultWriter is a tagging template compiled against the schema of the
// tuples it will be applied to: the production form of xml_templ. Where
// XMLize builds a node list that SerializeNodes then renders, a ResultWriter
// appends the rendered bytes directly — field paths are resolved to tuple
// positions once, TForEach scopes are bound statically, and a raw Cont cell
// already in serializer form (xmltree.CanonicalContent) is copied verbatim
// instead of being parsed and re-serialized. For every input its output is
// byte-identical to SerializeNodes(XMLize(...)), which stays as the oracle.
//
// Nested collections are read positionally against the schema the template
// was compiled for, so tuples whose collections still carry a plan's own
// attribute names need no renaming pass first.
//
// A ResultWriter holds per-row scratch state: use one per query, from one
// goroutine.
type ResultWriter struct {
	ops   []writeOp
	width int

	// Row state. frames[k] is the tuple bound by the k-th enclosing TForEach
	// (frames[0] the row itself); a row read from column vectors leaves
	// frames[0] nil and is addressed through cols/row instead.
	frames []Tuple
	cols   [][]Value
	row    int
	// nodes counts every node written, so an element can tell whether its
	// children produced any; top counts those written outside any element.
	nodes, top int
	depth      int
}

type writeOpKind uint8

const (
	// opElem writes <tag>, runs ops[pc+1:end], then closes the element.
	opElem writeOpKind = iota
	// opField writes the value at (scope, path) as text or raw content.
	opField
	// opEach runs ops[pc+1:end] once per tuple of the collection at
	// (scope, path), binding the tuple as frames[bind].
	opEach
	// opFail raises err when reached: XMLize reports an unresolvable path
	// only for rows that actually instantiate it.
	opFail
)

type writeOp struct {
	kind  writeOpKind
	raw   bool
	tag   string
	name  string // template path, for error messages
	scope int
	path  []int
	bind  int
	end   int
	err   error
}

// NewResultWriter compiles templ for tuples over schema.
func NewResultWriter(templ *Template, schema *Schema) *ResultWriter {
	w := &ResultWriter{width: len(schema.Attrs)}
	depth := w.compile(templ, []*Schema{schema})
	w.frames = make([]Tuple, depth)
	return w
}

// Width is the number of top-level attributes the writer expects per row.
func (w *ResultWriter) Width() int { return w.width }

// compile appends tp's ops and returns the number of frames they need.
func (w *ResultWriter) compile(tp *Template, scopes []*Schema) int {
	depth := len(scopes)
	switch tp.Kind {
	case TElem:
		pc := -1
		if tp.Tag != "" {
			pc = len(w.ops)
			w.ops = append(w.ops, writeOp{kind: opElem, tag: tp.Tag})
		}
		for _, c := range tp.Children {
			if d := w.compile(c, scopes); d > depth {
				depth = d
			}
		}
		if pc >= 0 {
			w.ops[pc].end = len(w.ops)
		}
	case TField, TForEach:
		scope, path, nested := resolveScoped(scopes, tp.Path)
		if path == nil {
			w.fail(fmt.Errorf("algebra: template path %q not found in any scope", tp.Path))
			break
		}
		if tp.Kind == TField {
			w.ops = append(w.ops, writeOp{kind: opField, raw: tp.Raw, scope: scope, path: path})
			break
		}
		pc := len(w.ops)
		w.ops = append(w.ops, writeOp{kind: opEach, name: tp.Path, scope: scope, path: path, bind: len(scopes)})
		inner := append(scopes[:len(scopes):len(scopes)], nested)
		depth = len(inner)
		for _, c := range tp.Children {
			if d := w.compile(c, inner); d > depth {
				depth = d
			}
		}
		w.ops[pc].end = len(w.ops)
	default:
		w.fail(fmt.Errorf("algebra: unknown template kind %d", tp.Kind))
	}
	return depth
}

func (w *ResultWriter) fail(err error) {
	w.ops = append(w.ops, writeOp{kind: opFail, err: err})
}

// resolveScoped resolves a dotted path against the innermost scope that
// knows it, as XMLize's frame lookup does, and returns the scope's index,
// the position path, and the nested schema of the attribute reached (nil
// for an atomic one). A nil path means no scope resolves it.
func resolveScoped(scopes []*Schema, path string) (int, []int, *Schema) {
	for i := len(scopes) - 1; i >= 0; i-- {
		if scopes[i] == nil {
			continue
		}
		idx, err := scopes[i].Resolve(path)
		if err != nil {
			continue
		}
		s := scopes[i]
		for k, j := range idx {
			if k == len(idx)-1 {
				return i, idx, s.Attrs[j].Nested
			}
			s = s.Attrs[j].Nested
		}
	}
	return 0, nil, nil
}

// AppendTuple instantiates the template for one row-major tuple, appending
// the serialized nodes to dst. It returns the extended buffer and how many
// top-level nodes the row produced (the unit of the rows-out quota). On
// error dst may hold a partial row; the caller discards it.
func (w *ResultWriter) AppendTuple(dst []byte, t Tuple) ([]byte, int, error) {
	w.frames[0], w.cols = t, nil
	return w.appendRow(dst)
}

// AppendColumns is AppendTuple for physical row `row` of column vectors
// (one per top-level attribute): the batch pipeline's rows are written
// without being pivoted into tuples first.
func (w *ResultWriter) AppendColumns(dst []byte, cols [][]Value, row int) ([]byte, int, error) {
	w.frames[0], w.cols, w.row = nil, cols, row
	return w.appendRow(dst)
}

func (w *ResultWriter) appendRow(dst []byte) ([]byte, int, error) {
	w.nodes, w.top, w.depth = 0, 0, 0
	dst, err := w.run(dst, 0, len(w.ops))
	return dst, w.top, err
}

func (w *ResultWriter) wrote(n int) {
	w.nodes += n
	if w.depth == 0 {
		w.top += n
	}
}

func (w *ResultWriter) run(dst []byte, pc, end int) ([]byte, error) {
	for pc < end {
		op := &w.ops[pc]
		switch op.kind {
		case opFail:
			return dst, op.err

		case opElem:
			dst = append(dst, '<')
			dst = append(dst, op.tag...)
			dst = append(dst, '>')
			mark, before := len(dst), w.nodes
			w.depth++
			var err error
			dst, err = w.run(dst, pc+1, op.end)
			w.depth--
			if err != nil {
				return dst, err
			}
			if w.nodes == before {
				// No child node, not even an empty text node: the serializer
				// writes the empty-element form.
				dst = append(dst[:mark-1], '/', '>')
			} else {
				dst = append(dst, '<', '/')
				dst = append(dst, op.tag...)
				dst = append(dst, '>')
			}
			w.wrote(1)
			pc = op.end
			continue

		case opField:
			v, err := w.value(op)
			if err != nil {
				return dst, err
			}
			if v != nil && v.Kind == Rel {
				// A collection field splices every member in order.
				for _, it := range v.Rel.Tuples {
					for i := range it {
						dst = w.cell(dst, &it[i], op.raw)
					}
				}
			} else if v != nil {
				dst = w.cell(dst, v, op.raw)
			}

		case opEach:
			v, err := w.value(op)
			if err != nil {
				return dst, err
			}
			if v != nil && v.Kind != Null {
				if v.Kind != Rel {
					return dst, fmt.Errorf("algebra: foreach path %q is not a collection", op.name)
				}
				for _, it := range v.Rel.Tuples {
					w.frames[op.bind] = it
					if dst, err = w.run(dst, pc+1, op.end); err != nil {
						return dst, err
					}
				}
			}
			pc = op.end
			continue
		}
		pc++
	}
	return dst, nil
}

// value follows op's position path from its scope's tuple. Like XMLize's
// resolveValue it descends through the first tuple of each collection on
// the way and yields nil (⊥) when one is empty or absent.
func (w *ResultWriter) value(op *writeOp) (*Value, error) {
	var cur Tuple
	for k, j := range op.path {
		var v *Value
		switch {
		case k == 0 && op.scope == 0 && w.cols != nil:
			if j >= len(w.cols) {
				return nil, shapeError(len(w.cols), j)
			}
			v = &w.cols[j][w.row]
		default:
			if k == 0 {
				cur = w.frames[op.scope]
			}
			if j >= len(cur) {
				return nil, shapeError(len(cur), j)
			}
			v = &cur[j]
		}
		if k == len(op.path)-1 {
			return v, nil
		}
		if v.Kind != Rel || v.Rel.Len() == 0 {
			return nil, nil
		}
		cur = v.Rel.Tuples[0]
	}
	return nil, nil
}

func shapeError(width, pos int) error {
	return fmt.Errorf("algebra: result shape mismatch: tuple of width %d has no position %d", width, pos)
}

// cell writes one atomic value: escaped text, or — for a raw field — its
// content spliced as markup.
func (w *ResultWriter) cell(dst []byte, v *Value, raw bool) []byte {
	if v.Kind == Null {
		return dst
	}
	s := v.Str
	if v.Kind != Str {
		s = v.AsString()
	}
	if raw {
		if xmltree.CanonicalContent(s) {
			// Parse → Serialize is the identity on s: copy it out.
			w.wrote(1)
			return append(dst, s...)
		}
		nodes := fieldNodes(*v, true)
		w.wrote(len(nodes))
		return append(dst, SerializeNodes(nodes)...)
	}
	w.wrote(1)
	return xmltree.AppendEscapedText(dst, s)
}
