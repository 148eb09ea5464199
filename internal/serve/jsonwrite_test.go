package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"xamdb/internal/admission"
	"xamdb/internal/datagen"
	"xamdb/internal/engine"
	"xamdb/internal/faultinject"
	"xamdb/internal/physical"
)

// jsonRoundTrip is what a client decodes when encoding/json wrote s: the
// reference for the hand-written escaper (invalid UTF-8 becomes U+FFFD).
func jsonRoundTrip(t testing.TB, s string) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// oddStrings exercise every class the escaper distinguishes.
var oddStrings = []string{
	``,
	`plain <xml attr="v">&amp;</xml>`,
	`quote " backslash \ slash /`,
	"controls \x00\x01\x08\x0c\n\r\t\x1f\x7f end",
	"line sep \u2028 para sep \u2029 end",
	"invalid \xff\xfe lone continuation \x80 truncated \xe2\x82",
	"overlong \xc0\xaf surrogate \xed\xa0\x80 end",
	"mixed é € 𝄞 \xf0\x9d\x84 cut",
}

func TestAppendJSONEscapedDecodesLikeEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := append([]string{}, oddStrings...)
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			b[j] = byte(rng.Intn(256))
			if rng.Intn(3) == 0 {
				b[j] = "\"\\<>&\n é"[rng.Intn(8)]
			}
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		for _, quoted := range [][]byte{
			append(appendJSONEscaped([]byte{'"'}, s), '"'),
			append(appendJSONEscaped([]byte{'"'}, []byte(s)), '"'),
		} {
			var got string
			if err := json.Unmarshal(quoted, &got); err != nil {
				t.Fatalf("%q escaped to invalid JSON %s: %v", s, quoted, err)
			}
			if want := jsonRoundTrip(t, s); got != want {
				t.Fatalf("%q decodes to %q, encoding/json's output to %q", s, got, want)
			}
		}
	}
	// Not HTML-escaped: an XML payload's delimiters cost one byte each.
	if got := string(appendJSONEscaped(nil, `<a b="c">&</a>`)); got != `<a b=\"c\">&</a>` {
		t.Fatalf("escaped form %s", got)
	}
}

// TestWriteQueryResponseChunks: a result larger than the escape chunk, with
// multi-byte runes lying across every cut, arrives intact.
func TestWriteQueryResponseChunks(t *testing.T) {
	for _, prefix := range []string{"", "a", "ab", "abc"} {
		for _, unit := range []string{"€", "𝄞", "é", "\xff", "\x80\x80\x80\x80\x80"} {
			result := prefix + strings.Repeat(unit, 3*escapeChunk/len(unit)+7)
			var buf bytes.Buffer
			resp := queryResponse{Outcome: "served", Plans: []string{`π["q"]`}, QueueWaitNS: 1, DurationNS: 2}
			if err := writeQueryResponse(&buf, &resp, []byte(result)); err != nil {
				t.Fatal(err)
			}
			var got queryResponse
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				t.Fatalf("prefix %q unit %q: invalid JSON: %v", prefix, unit, err)
			}
			if want := jsonRoundTrip(t, result); got.Result != want {
				t.Fatalf("prefix %q unit %q: result corrupted at a chunk boundary", prefix, unit)
			}
			if got.Outcome != "served" || len(got.Plans) != 1 || got.Plans[0] != `π["q"]` || got.DurationNS != 2 {
				t.Fatalf("envelope: %+v", got)
			}
			if bytes.Contains(buf.Bytes(), []byte("\n ")) || !bytes.HasSuffix(buf.Bytes(), []byte("}\n")) {
				t.Fatal("the body must be one compact line")
			}
		}
	}
}

// TestQueryOddResultBytes serves text holding every awkward byte class
// through the real handler: the reply is valid JSON and its result decodes
// to what the engine produced.
func TestQueryOddResultBytes(t *testing.T) {
	e := engine.New()
	var doc strings.Builder
	doc.WriteString("<odd>")
	for _, s := range oddStrings {
		doc.WriteString("<v>x")
		doc.WriteString(strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s))
		doc.WriteString("</v>")
	}
	doc.WriteString("</odd>")
	if err := e.LoadDocument("odd.xml", doc.String()); err != nil {
		t.Fatal(err)
	}
	ctrl := admission.New(testCtrlConfig())
	defer ctrl.Drain(time.Second)
	ts := httptest.NewServer(NewWithQuery(e, ctrl).Handler())
	defer ts.Close()

	const q = `doc("odd.xml")//v`
	want, _, err := e.QueryContext(context.Background(), q)
	if err != nil || !strings.Contains(want, "\xff") || !strings.Contains(want, "\u2028") {
		t.Fatalf("engine answer lost the odd bytes: %q (err %v)", want, err)
	}
	body, _ := json.Marshal(map[string]string{"query": q})
	code, _, qr := postQuery(t, ts, string(body))
	if code != http.StatusOK || qr.Outcome != "served" {
		t.Fatalf("code=%d resp=%+v", code, qr)
	}
	if qr.Result != jsonRoundTrip(t, want) {
		t.Fatalf("result over HTTP %q, engine %q", qr.Result, want)
	}
}

// TestQueryErrorBodiesKeepShape pins the documented reply of every
// non-200 status: 413 is plain text; 422, 429, 503 and 504 are the JSON
// envelope with an error, no result, and retry_after_s exactly where
// Retry-After is set.
func TestQueryErrorBodiesKeepShape(t *testing.T) {
	defer faultinject.Reset()
	const q = `{"query":"doc(\"bib.xml\")//book/title"}`
	cases := []struct {
		name    string
		body    string
		arm     func(ctrl *admission.Controller)
		status  int
		outcome string
		retry   bool
		ran     bool // the engine got as far as extracting the pattern
	}{
		{name: "failed", body: `{"query":"doc(\"nope.xml\")//x"}`, status: http.StatusUnprocessableEntity, outcome: "error", ran: true},
		{name: "queue full", body: q, status: http.StatusTooManyRequests, outcome: "shed:queue_full", retry: true,
			arm: func(*admission.Controller) { faultinject.Arm(admission.SiteEnqueue, faultinject.Fault{}) }},
		{name: "draining", body: q, status: http.StatusServiceUnavailable, outcome: "shed:draining", retry: true,
			arm: func(ctrl *admission.Controller) { ctrl.Drain(10 * time.Millisecond) }},
		{name: "deadline", body: q, status: http.StatusGatewayTimeout, outcome: "deadline", ran: true,
			arm: func(*admission.Controller) {
				faultinject.Arm(engine.SiteRewrite, faultinject.Fault{Err: context.DeadlineExceeded})
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer faultinject.Reset()
			ctrl := admission.New(testCtrlConfig())
			defer ctrl.Drain(time.Second)
			ts := httptest.NewServer(NewWithQuery(newEngine(t), ctrl).Handler())
			defer ts.Close()
			if c.arm != nil {
				c.arm(ctrl)
			}
			resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("status %d content-type %q, want %d application/json: %s", resp.StatusCode, resp.Header.Get("Content-Type"), c.status, data)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(data, &fields); err != nil {
				t.Fatalf("body is not a JSON object: %v: %s", err, data)
			}
			var keys []string
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want := []string{"duration_ns", "error", "outcome", "queue_wait_ns"}
			if c.ran {
				want = append(want, "patterns")
			}
			if c.retry {
				want = append(want, "retry_after_s")
			}
			sort.Strings(want)
			if strings.Join(keys, ",") != strings.Join(want, ",") {
				t.Fatalf("body keys %v, want %v: %s", keys, want, data)
			}
			var qr queryResponse
			if err := json.Unmarshal(data, &qr); err != nil {
				t.Fatal(err)
			}
			if qr.Outcome != c.outcome || qr.Error == "" || qr.Result != "" {
				t.Fatalf("outcome %q error %q result %q, want outcome %q", qr.Outcome, qr.Error, qr.Result, c.outcome)
			}
			if c.retry != (resp.Header.Get("Retry-After") != "") || c.retry != (qr.RetryAfterS > 0) {
				t.Fatalf("Retry-After %q, retry_after_s %d", resp.Header.Get("Retry-After"), qr.RetryAfterS)
			}
		})
	}

	t.Run("oversized", func(t *testing.T) {
		ctrl := admission.New(testCtrlConfig())
		defer ctrl.Drain(time.Second)
		ts := httptest.NewServer(NewWithQuery(newEngine(t), ctrl).Handler())
		defer ts.Close()
		big := `{"query":"` + strings.Repeat("x", MaxQueryBodyBytes) + `"}`
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || strings.TrimSpace(string(data)) != "request body over limit" {
			t.Fatalf("status %d body %q", resp.StatusCode, data)
		}
	})
}

// TestQueryQuotaKilledMidWrite: a rows-out kill that lands after a batch of
// the answer is already written still answers 422 with no result at all.
func TestQueryQuotaKilledMidWrite(t *testing.T) {
	e := engine.New()
	e.UsePhysical, e.UseBatch = true, true
	doc := datagen.DBLP(4000)
	e.AddDocument(doc)
	if err := e.RegisterView(doc.Name, "v_title", `// title{id s, cont}`); err != nil {
		t.Fatal(err)
	}
	cfg := testCtrlConfig()
	cfg.MaxRowsOut = physical.BatchSize + 1
	ctrl := admission.New(cfg)
	defer ctrl.Drain(time.Second)
	ts := httptest.NewServer(NewWithQuery(e, ctrl).Handler())
	defer ts.Close()

	code, _, qr := postQuery(t, ts, `{"query":"doc(\"dblp.xml\")//title"}`)
	if code != http.StatusUnprocessableEntity || qr.Outcome != "quota_killed" || qr.Error == "" {
		t.Fatalf("code=%d resp=%+v", code, qr)
	}
	if qr.Result != "" {
		t.Fatalf("a killed query leaked %d result bytes", len(qr.Result))
	}
	if recs := e.QueryLog.Recent(1); len(recs) != 1 || recs[0].RowsOut <= physical.BatchSize {
		t.Fatalf("the kill must land mid-write (rows_out past the first batch): %+v", recs)
	}
}

// xmlPayload is a bulk_exec-sized answer: 1.5 MB of small elements.
func xmlPayload() []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < 1500<<10; i++ {
		b.WriteString(`<payload id="p`)
		b.WriteString(strings.Repeat("7", i%5+1))
		b.WriteString(`">some ordinary text of a serial item &amp; its padding</payload>`)
	}
	return b.Bytes()
}

// BenchmarkResponseEncode compares the two ways of putting a 1.5 MB XML
// answer on the wire; SetBytes makes the ns/byte readable as MB/s.
func BenchmarkResponseEncode(b *testing.B) {
	payload := xmlPayload()
	resp := queryResponse{Outcome: "served", Plans: []string{"π[x](scan(v))"}, Patterns: []string{"//x"}, DurationNS: 1}
	b.Run("writeQueryResponse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if err := writeQueryResponse(io.Discard, &resp, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jsonEncoderIndent", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			full := resp
			full.Result = string(payload) // the copy the old path made
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(full); err != nil {
				b.Fatal(err)
			}
		}
	})
}
