package serve

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /query reply is written by hand, in one pass: the envelope's few
// fixed fields, then the result escaped from the engine's buffer into a
// small scratch chunk that is flushed to the connection as it fills. A
// result byte is copied cell → engine buffer → scratch → socket buffer and
// never exists as a Go string, an encoder's buffer and an indent buffer at
// once (what json.Encoder with SetIndent costs), and '<' '>' '&' — most of
// what delimits an XML payload — go out as themselves instead of as six-byte
// \u003c escapes: the body is JSON for an API client, not for a <script> tag.

// jsonSafe marks the ASCII bytes a JSON string carries verbatim (RFC 8259
// §7): everything from 0x20 up except '"' and '\\'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONEscaped appends src as the inside of a JSON string (no quotes).
// Control bytes get their short escape or \u00XX; invalid UTF-8 becomes
// U+FFFD byte for byte and U+2028/U+2029 are escaped, both as encoding/json
// does.
func appendJSONEscaped[S ~string | ~[]byte](dst []byte, src S) []byte {
	start := 0
	for i := 0; i < len(src); {
		c := src[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode through a bounded window; the conversion does not escape.
		end := i + utf8.UTFMax
		if end > len(src) {
			end = len(src)
		}
		r, size := utf8.DecodeRuneInString(string(src[i:end]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, src[start:]...)
}

// runeCut returns the cut point at or just below n that does not split a
// UTF-8 sequence: a rune cut in two would be replaced as two invalid halves.
// Four continuation bytes in a row belong to no valid rune, so when no rune
// start lies within reach n itself is safe.
func runeCut(b []byte, n int) int {
	for cut := n; cut > 0 && n-cut <= utf8.UTFMax; cut-- {
		if utf8.RuneStart(b[cut]) {
			return cut
		}
	}
	return n
}

// escapeChunk is how much of the result is escaped per flush: the scratch
// stays cache-sized whatever the result's size.
const escapeChunk = 16 << 10

// scratchPool holds the reply scratch buffers, one per in-flight response.
// They start small — most replies are — and keep what a large one grew.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// writeQueryResponse writes resp as one compact JSON object followed by a
// newline, with result (when non-empty) as the "result" member, escaped
// chunk by chunk straight onto w. resp.Result is not consulted.
func writeQueryResponse(w io.Writer, resp *queryResponse, result []byte) error {
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	b := (*sp)[:0]

	str := func(key, val string) {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':', '"')
		b = appendJSONEscaped(b, val)
		b = append(b, '"')
	}
	num := func(key string, val int64) {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, val, 10)
	}
	list := func(key string, vals []string) {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':', '[')
		for i, v := range vals {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = appendJSONEscaped(b, v)
			b = append(b, '"')
		}
		b = append(b, ']')
	}

	b = append(b, `{"outcome":"`...)
	b = appendJSONEscaped(b, resp.Outcome)
	b = append(b, '"')
	if len(resp.Plans) > 0 {
		list("plans", resp.Plans)
	}
	if len(resp.Patterns) > 0 {
		list("patterns", resp.Patterns)
	}
	if resp.Degradations != 0 {
		num("degradations", int64(resp.Degradations))
	}
	if resp.Analyze != "" {
		str("analyze", resp.Analyze)
	}
	if resp.Error != "" {
		str("error", resp.Error)
	}
	num("queue_wait_ns", resp.QueueWaitNS)
	num("duration_ns", resp.DurationNS)
	if resp.RetryAfterS != 0 {
		num("retry_after_s", int64(resp.RetryAfterS))
	}
	if len(result) > 0 {
		b = append(b, `,"result":"`...)
		for len(result) > 0 {
			n := len(result)
			if n > escapeChunk {
				n = runeCut(result, escapeChunk)
			}
			b = appendJSONEscaped(b, result[:n])
			result = result[n:]
			if len(b) >= escapeChunk {
				if _, err := w.Write(b); err != nil {
					*sp = b
					return err
				}
				b = b[:0]
			}
		}
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	_, err := w.Write(b)
	*sp = b
	return err
}
