package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"qpiad/internal/core"
	"qpiad/internal/relation"
)

// Wire encoding. Answer-bearing bodies — the batch /query selection, every
// NDJSON answer line of /query?stream=1 and the /join answers — are
// appended straight to a pooled byte buffer, with no per-answer map and
// no reflection. The bytes are exactly what encoding/json writes in
// compact form for the same answers held as attribute-keyed maps: the
// same keys, map keys in sorted order, the same number formatting and the
// same HTML-safe string escaping (wire_test.go keeps that encoding as the
// reference). The one deliberate difference is that a non-finite float,
// which encoding/json refuses, is written as null.

// wireBufSize is the encode buffer's size: a batch body goes to the
// ResponseWriter each time this much has accumulated.
const wireBufSize = 32 << 10

var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, wireBufSize)
	return &b
}}

// wire is one response's encoder: a pooled buffer in front of the writer.
// A write error is kept and ends all later writes.
type wire struct {
	w   io.Writer
	bp  *[]byte
	buf []byte
	err error
}

func newWire(w io.Writer) *wire {
	bp := wireBufs.Get().(*[]byte)
	return &wire{w: w, bp: bp, buf: (*bp)[:0]}
}

// spill writes the buffer out once it holds a full chunk.
func (e *wire) spill() {
	if len(e.buf) >= wireBufSize {
		e.flush()
	}
}

// flush writes everything buffered.
func (e *wire) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// release returns the buffer to the pool; the wire is unusable after.
// Buffers an oversized answer grew are dropped rather than pooled.
func (e *wire) release() {
	if cap(e.buf) <= 2*wireBufSize {
		*e.bp = e.buf[:0]
		wireBufs.Put(e.bp)
	}
	e.bp, e.buf = nil, nil
}

// tupleCodec writes tuples of one schema as JSON objects keyed by
// attribute name. The keys are escaped once, in encoding/json's map-key
// order, each carrying the byte that opens the object or separates it
// from the previous member.
type tupleCodec struct {
	keys [][]byte // `{"name":` for the first key, `,"name":` after
	cols []int    // the tuple column each key reads
}

// newTupleCodec builds the codec for s. cols, when non-nil, maps each
// attribute of s to the column of the tuples being written that holds it
// (a projection applied while encoding); nil means the tuples are in s.
func newTupleCodec(s *relation.Schema, cols []int) *tupleCodec {
	n := s.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.Attr(order[a]).Name < s.Attr(order[b]).Name })
	c := &tupleCodec{keys: make([][]byte, n), cols: make([]int, n)}
	for i, a := range order {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		c.keys[i] = append(appendString([]byte{sep}, s.Attr(a).Name), ':')
		c.cols[i] = a
		if cols != nil {
			c.cols[i] = cols[a]
		}
	}
	return c
}

func (c *tupleCodec) appendTuple(b []byte, t relation.Tuple) []byte {
	if len(c.keys) == 0 {
		return append(b, '{', '}')
	}
	for i, k := range c.keys {
		b = append(b, k...)
		b = appendValue(b, t[c.cols[i]])
	}
	return append(b, '}')
}

// appendAnswer writes one answer: its values, certainty, confidence and
// (when present) explanation.
func (c *tupleCodec) appendAnswer(b []byte, a core.Answer) []byte {
	b = append(b, `{"values":`...)
	b = c.appendTuple(b, a.Tuple)
	if a.Certain {
		b = append(b, `,"certain":true,"confidence":`...)
	} else {
		b = append(b, `,"certain":false,"confidence":`...)
	}
	b = appendFloat(b, a.Confidence)
	if a.Explanation != "" {
		b = append(b, `,"explanation":`...)
		b = appendString(b, a.Explanation)
	}
	return append(b, '}')
}

// answers writes a JSON array of answers, spilling as the buffer fills.
func (e *wire) answers(c *tupleCodec, answers []core.Answer) {
	e.buf = append(e.buf, '[')
	for i, a := range answers {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = c.appendAnswer(e.buf, a)
		e.spill()
	}
	e.buf = append(e.buf, ']')
}

// writeSelect writes a batch selection body:
//
//	{"query", "source", "certain": [answers], "possible": [answers],
//	 "unranked" (when any), "rewrites_issued": [strings] or null,
//	 "rewrites_generated", "degraded", "stale", "stale_age_micros"
//	 (each only when set), "planner" (the given snapshot, when non-nil)}
//
// Answers stream out through the wire buffer as it fills.
func writeSelect(w http.ResponseWriter, query, source string, rs *core.ResultSet, schema *relation.Schema, planner []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	e := newWire(w)
	defer e.release()
	c := newTupleCodec(schema, nil)
	e.buf = append(e.buf, `{"query":`...)
	e.buf = appendString(e.buf, query)
	e.buf = append(e.buf, `,"source":`...)
	e.buf = appendString(e.buf, source)
	e.buf = append(e.buf, `,"certain":`...)
	e.answers(c, rs.Certain)
	e.buf = append(e.buf, `,"possible":`...)
	e.answers(c, rs.Possible)
	if len(rs.Unranked) > 0 {
		e.buf = append(e.buf, `,"unranked":`...)
		e.answers(c, rs.Unranked)
	}
	if len(rs.Issued) == 0 {
		e.buf = append(e.buf, `,"rewrites_issued":null`...)
	} else {
		e.buf = append(e.buf, `,"rewrites_issued":[`...)
		for i, rq := range rs.Issued {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if rq.Err != nil {
				e.buf = appendString(e.buf, fmt.Sprintf("%s (precision %.3f, failed after %d attempts: %v)",
					rq.Query, rq.Precision, rq.Attempts, rq.Err))
			} else {
				e.buf = appendString(e.buf, fmt.Sprintf("%s (precision %.3f)", rq.Query, rq.Precision))
			}
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, `,"rewrites_generated":`...)
	e.buf = strconv.AppendInt(e.buf, int64(rs.Generated), 10)
	if rs.Degraded {
		e.buf = append(e.buf, `,"degraded":true`...)
	}
	if rs.Stale {
		e.buf = append(e.buf, `,"stale":true`...)
	}
	if age := int64(rs.StaleAge / time.Microsecond); age != 0 {
		e.buf = append(e.buf, `,"stale_age_micros":`...)
		e.buf = strconv.AppendInt(e.buf, age, 10)
	}
	if planner != nil {
		e.buf = append(e.buf, `,"planner":`...)
		e.buf = append(e.buf, planner...)
	}
	e.buf = append(e.buf, "}\n"...)
	e.flush()
}

// writeJoin writes a /join body:
//
//	{"left_source", "right_source",
//	 "answers": [{"left": {tuple}, "right": {tuple}, "join_value",
//	              "certain", "confidence"}],
//	 "pairs_issued", "degraded", "est_saved_tuples" (each only when set)}
func writeJoin(w http.ResponseWriter, leftSource, rightSource string, res *core.JoinResult, leftSchema, rightSchema *relation.Schema) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	e := newWire(w)
	defer e.release()
	lc, rc := newTupleCodec(leftSchema, nil), newTupleCodec(rightSchema, nil)
	e.buf = append(e.buf, `{"left_source":`...)
	e.buf = appendString(e.buf, leftSource)
	e.buf = append(e.buf, `,"right_source":`...)
	e.buf = appendString(e.buf, rightSource)
	e.buf = append(e.buf, `,"answers":[`...)
	for i, a := range res.Answers {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"left":`...)
		e.buf = lc.appendTuple(e.buf, a.Left)
		e.buf = append(e.buf, `,"right":`...)
		e.buf = rc.appendTuple(e.buf, a.Right)
		e.buf = append(e.buf, `,"join_value":`...)
		e.buf = appendValue(e.buf, a.JoinValue)
		if a.Certain {
			e.buf = append(e.buf, `,"certain":true,"confidence":`...)
		} else {
			e.buf = append(e.buf, `,"certain":false,"confidence":`...)
		}
		e.buf = appendFloat(e.buf, a.Confidence)
		e.buf = append(e.buf, '}')
		e.spill()
	}
	e.buf = append(e.buf, `],"pairs_issued":`...)
	e.buf = strconv.AppendInt(e.buf, int64(len(res.Pairs)), 10)
	if res.Degraded {
		e.buf = append(e.buf, `,"degraded":true`...)
	}
	if res.EstSavedTuples != 0 {
		e.buf = append(e.buf, `,"est_saved_tuples":`...)
		e.buf = appendFloat(e.buf, res.EstSavedTuples)
	}
	e.buf = append(e.buf, "}\n"...)
	e.flush()
}

// appendValue writes a tuple value as its native JSON type, null for null.
func appendValue(b []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindNull:
		return append(b, "null"...)
	case relation.KindInt:
		return strconv.AppendInt(b, v.IntVal(), 10)
	case relation.KindFloat:
		return appendFloat(b, v.FloatVal())
	case relation.KindBool:
		return strconv.AppendBool(b, v.BoolVal())
	default:
		return appendString(b, v.String())
	}
}

// appendFloat writes f as encoding/json does (ES6 number formatting:
// exponent form below 1e-6 and from 1e21), and a non-finite f as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim a padded exponent: e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's escaping:
// quote, backslash, control bytes and the HTML-sensitive <, > and & are
// escaped, invalid UTF-8 becomes U+FFFD, and U+2028 and U+2029 are
// escaped for JSONP safety.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// streamAnswer buffers one NDJSON answer line.
func (e *wire) streamAnswer(c *tupleCodec, ev core.StreamEvent) {
	e.buf = append(e.buf, `{"event":"answer","answer":`...)
	e.buf = c.appendAnswer(e.buf, *ev.Answer)
	if ev.Unranked {
		e.buf = append(e.buf, `,"unranked":true`...)
	}
	if ev.Stale {
		e.buf = append(e.buf, `,"stale":true`...)
	}
	e.buf = append(e.buf, "}\n"...)
}

// note buffers one NDJSON line {"event":name,name:v} for the stream's
// rewrite and summary events: small fixed-shape structs with no tuples,
// left to encoding/json.
func (e *wire) note(name string, v any) error {
	j, err := json.Marshal(v)
	if err != nil {
		return err
	}
	e.buf = append(e.buf, `{"event":"`...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, `","`...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, `":`...)
	e.buf = append(e.buf, j...)
	e.buf = append(e.buf, "}\n"...)
	return nil
}
