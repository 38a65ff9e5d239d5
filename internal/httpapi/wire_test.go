package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// The reference encoding: the answer types and conversions the handlers
// used before the wire encoder, encoded by encoding/json. Tests decode
// responses into these types, and the equivalence tests below prove the
// wire bytes equal json.Compact of what the handlers wrote with them.

// answerJSON is one returned tuple.
type answerJSON struct {
	Values      map[string]any `json:"values"`
	Certain     bool           `json:"certain"`
	Confidence  float64        `json:"confidence"`
	Explanation string         `json:"explanation,omitempty"`
}

// queryResponse is the /query output for selections.
type queryResponse struct {
	Query          string          `json:"query"`
	Source         string          `json:"source"`
	Certain        []answerJSON    `json:"certain"`
	Possible       []answerJSON    `json:"possible"`
	Unranked       []answerJSON    `json:"unranked,omitempty"`
	Rewrites       []string        `json:"rewrites_issued"`
	Generated      int             `json:"rewrites_generated"`
	Degraded       bool            `json:"degraded,omitempty"`
	Stale          bool            `json:"stale,omitempty"`
	StaleAgeMicros int64           `json:"stale_age_micros,omitempty"`
	Planner        *plannerMetrics `json:"planner,omitempty"`
}

// streamEventJSON is one NDJSON line of a streamed query.
type streamEventJSON struct {
	Event    string         `json:"event"`
	Answer   *answerJSON    `json:"answer,omitempty"`
	Unranked bool           `json:"unranked,omitempty"`
	Stale    bool           `json:"stale,omitempty"`
	Rewrite  *rewriteJSON   `json:"rewrite,omitempty"`
	Summary  *streamSumJSON `json:"summary,omitempty"`
}

// joinAnswerJSON is one joined pair.
type joinAnswerJSON struct {
	Left       map[string]any `json:"left"`
	Right      map[string]any `json:"right"`
	JoinValue  any            `json:"join_value"`
	Certain    bool           `json:"certain"`
	Confidence float64        `json:"confidence"`
}

// joinResponse is the POST /join output.
type joinResponse struct {
	LeftSource     string           `json:"left_source"`
	RightSource    string           `json:"right_source"`
	Answers        []joinAnswerJSON `json:"answers"`
	PairsIssued    int              `json:"pairs_issued"`
	Degraded       bool             `json:"degraded,omitempty"`
	EstSavedTuples float64          `json:"est_saved_tuples,omitempty"`
}

func valueJSON(v relation.Value) any {
	switch v.Kind() {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		return v.IntVal()
	case relation.KindFloat:
		return v.FloatVal()
	case relation.KindBool:
		return v.BoolVal()
	default:
		return v.String()
	}
}

func tupleValues(s *relation.Schema, t relation.Tuple) map[string]any {
	vals := make(map[string]any, s.Len())
	for c := 0; c < s.Len(); c++ {
		vals[s.Attr(c).Name] = valueJSON(t[c])
	}
	return vals
}

func toJSONAnswers(s *relation.Schema, answers []core.Answer) []answerJSON {
	out := make([]answerJSON, len(answers))
	for i, a := range answers {
		out[i] = answerJSON{
			Values:      tupleValues(s, a.Tuple),
			Certain:     a.Certain,
			Confidence:  a.Confidence,
			Explanation: a.Explanation,
		}
	}
	return out
}

// toStreamAnswer renders one streamed answer, applying the projection.
func toStreamAnswer(outSchema *relation.Schema, projCols []int, a core.Answer) answerJSON {
	t := a.Tuple
	if projCols != nil {
		pt := make(relation.Tuple, len(projCols))
		for i, c := range projCols {
			pt[i] = t[c]
		}
		t = pt
	}
	return answerJSON{
		Values:      tupleValues(outSchema, t),
		Certain:     a.Certain,
		Confidence:  a.Confidence,
		Explanation: a.Explanation,
	}
}

func refSelect(query, source string, rs *core.ResultSet, schema *relation.Schema, planner *plannerMetrics) queryResponse {
	resp := queryResponse{
		Query:          query,
		Source:         source,
		Certain:        toJSONAnswers(schema, rs.Certain),
		Possible:       toJSONAnswers(schema, rs.Possible),
		Unranked:       toJSONAnswers(schema, rs.Unranked),
		Generated:      rs.Generated,
		Degraded:       rs.Degraded,
		Stale:          rs.Stale,
		StaleAgeMicros: int64(rs.StaleAge / time.Microsecond),
		Planner:        planner,
	}
	for _, rq := range rs.Issued {
		if rq.Err != nil {
			resp.Rewrites = append(resp.Rewrites, fmt.Sprintf("%s (precision %.3f, failed after %d attempts: %v)",
				rq.Query, rq.Precision, rq.Attempts, rq.Err))
			continue
		}
		resp.Rewrites = append(resp.Rewrites, fmt.Sprintf("%s (precision %.3f)", rq.Query, rq.Precision))
	}
	return resp
}

func refJoin(left, right string, res *core.JoinResult, ls, rs *relation.Schema) joinResponse {
	resp := joinResponse{
		LeftSource:     left,
		RightSource:    right,
		Answers:        make([]joinAnswerJSON, 0, len(res.Answers)),
		PairsIssued:    len(res.Pairs),
		Degraded:       res.Degraded,
		EstSavedTuples: res.EstSavedTuples,
	}
	for _, a := range res.Answers {
		resp.Answers = append(resp.Answers, joinAnswerJSON{
			Left:       tupleValues(ls, a.Left),
			Right:      tupleValues(rs, a.Right),
			JoinValue:  valueJSON(a.JoinValue),
			Certain:    a.Certain,
			Confidence: a.Confidence,
		})
	}
	return resp
}

func refStreamAnswer(outSchema *relation.Schema, projCols []int, ev core.StreamEvent) streamEventJSON {
	a := toStreamAnswer(outSchema, projCols, *ev.Answer)
	return streamEventJSON{Event: "answer", Answer: &a, Unranked: ev.Unranked, Stale: ev.Stale}
}

// refBytes is v as the old handlers wrote it — indented by json.Encoder,
// HTML-escaped — passed through json.Compact, with the encoder's trailing
// newline kept: the bytes the wire encoder must reproduce.
func refBytes(v any) ([]byte, error) {
	var ind bytes.Buffer
	enc := json.NewEncoder(&ind)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Compact(&out, ind.Bytes()); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// wireSelect, wireJoin and wireStreamAnswer run the production encoders.
func wireSelect(query, src string, rs *core.ResultSet, schema *relation.Schema, planner []byte) []byte {
	rec := httptest.NewRecorder()
	writeSelect(rec, query, src, rs, schema, planner)
	return rec.Body.Bytes()
}

func wireJoin(left, right string, res *core.JoinResult, ls, rs *relation.Schema) []byte {
	rec := httptest.NewRecorder()
	writeJoin(rec, left, right, res, ls, rs)
	return rec.Body.Bytes()
}

func wireStreamAnswer(outSchema *relation.Schema, projCols []int, ev core.StreamEvent) []byte {
	var buf bytes.Buffer
	e := newWire(&buf)
	defer e.release()
	e.streamAnswer(newTupleCodec(outSchema, projCols), ev)
	e.flush()
	return buf.Bytes()
}

// wireFixture is a synthetic answer set exercising every value kind and
// every optional field; the fuzzer fills it with arbitrary content.
type wireFixture struct {
	name, str, expl string
	i               int64
	f, conf         float64
	b               bool
}

func (fx wireFixture) schema() *relation.Schema {
	name := fx.name
	switch name {
	case "", "i", "f", "b", "s", "n":
		name = "x"
	}
	return relation.MustSchema(
		relation.Attribute{Name: "s", Kind: relation.KindString},
		relation.Attribute{Name: name, Kind: relation.KindString},
		relation.Attribute{Name: "i", Kind: relation.KindInt},
		relation.Attribute{Name: "f", Kind: relation.KindFloat},
		relation.Attribute{Name: "b", Kind: relation.KindBool},
		relation.Attribute{Name: "n", Kind: relation.KindInt},
	)
}

func (fx wireFixture) tuples() (full, sparse relation.Tuple) {
	full = relation.Tuple{relation.String(fx.str), relation.String(fx.expl), relation.Int(fx.i),
		relation.Float(fx.f), relation.Bool(fx.b), relation.Null()}
	sparse = relation.Tuple{relation.Null(), relation.String(fx.name), relation.Null(),
		relation.Float(-fx.f), relation.Null(), relation.Int(-fx.i)}
	return full, sparse
}

func (fx wireFixture) resultSet() *core.ResultSet {
	full, sparse := fx.tuples()
	q := relation.NewQuery("src", relation.Eq("s", relation.String(fx.str)))
	return &core.ResultSet{
		Certain:  []core.Answer{{Tuple: full, Certain: true, Confidence: 1}},
		Possible: []core.Answer{{Tuple: sparse, Confidence: fx.conf, Explanation: fx.expl}, {Tuple: full, Confidence: fx.conf / 3}},
		Unranked: []core.Answer{{Tuple: sparse, Confidence: fx.conf, Explanation: fx.expl}},
		Issued: []core.RewrittenQuery{
			{Query: q, Precision: fx.conf},
			{Query: q.With(relation.IsNull("f")), Precision: fx.conf, Attempts: 2, Err: errors.New(fx.expl)},
		},
		Generated: int(fx.i % 1000),
		Degraded:  fx.b,
		Stale:     !fx.b,
		StaleAge:  time.Duration(fx.i),
	}
}

func (fx wireFixture) joinResult() *core.JoinResult {
	full, sparse := fx.tuples()
	return &core.JoinResult{
		Pairs: make([]core.QueryPair, int(fx.i&7)),
		Answers: []core.JoinAnswer{
			{Left: full, Right: sparse, JoinValue: relation.String(fx.str), Certain: true, Confidence: 1},
			{Left: sparse, Right: full, JoinValue: relation.Float(fx.f), Confidence: fx.conf},
			{Left: sparse, Right: sparse, JoinValue: relation.Null(), Confidence: fx.conf / 7},
		},
		Degraded:       fx.b,
		EstSavedTuples: fx.f,
	}
}

// checkWire compares the wire encoding of fx against the reference. When
// fx holds a non-finite float, which encoding/json refuses, the wire bytes
// must instead be valid JSON carrying null in its place.
func checkWire(t *testing.T, fx wireFixture) {
	t.Helper()
	nonFinite := math.IsNaN(fx.f) || math.IsInf(fx.f, 0) || math.IsNaN(fx.conf) || math.IsInf(fx.conf, 0)
	schema := fx.schema()
	rs := fx.resultSet()
	planner := &plannerMetrics{Enabled: fx.b, Plans: fx.i}
	pj, err := json.Marshal(planner)
	if err != nil {
		t.Fatal(err)
	}
	projSchema, err := schema.Project("f", "s", "n")
	if err != nil {
		t.Fatal(err)
	}
	projected, _, err := rs.Project(schema, []string{"f", "s", "n"})
	if err != nil {
		t.Fatal(err)
	}
	projCols := []int{3, 0, 5}

	type pair struct {
		name string
		got  []byte
		want any
	}
	pairs := []pair{
		{"batch", wireSelect(fx.str, fx.name, rs, schema, pj), refSelect(fx.str, fx.name, rs, schema, planner)},
		{"batch-projected", wireSelect(fx.expl, "src", projected, projSchema, nil), refSelect(fx.expl, "src", projected, projSchema, nil)},
		{"batch-empty", wireSelect("q", "src", &core.ResultSet{}, schema, nil), refSelect("q", "src", &core.ResultSet{}, schema, nil)},
		{"join", wireJoin(fx.name, fx.str, fx.joinResult(), schema, schema), refJoin(fx.name, fx.str, fx.joinResult(), schema, schema)},
		{"join-empty", wireJoin("l", "r", &core.JoinResult{}, schema, schema), refJoin("l", "r", &core.JoinResult{}, schema, schema)},
	}
	for i, a := range append(append(append([]core.Answer{}, rs.Certain...), rs.Possible...), rs.Unranked...) {
		ev := core.StreamEvent{Kind: core.StreamEventAnswer, Answer: &a, Unranked: i == 3, Stale: i%2 == 1}
		pairs = append(pairs,
			pair{fmt.Sprintf("stream-%d", i), wireStreamAnswer(schema, nil, ev), refStreamAnswer(schema, nil, ev)},
			pair{fmt.Sprintf("stream-projected-%d", i), wireStreamAnswer(projSchema, projCols, ev), refStreamAnswer(projSchema, projCols, ev)})
	}
	for _, p := range pairs {
		want, err := refBytes(p.want)
		switch {
		case err != nil && nonFinite:
			if !json.Valid(p.got) || !bytes.Contains(p.got, []byte("null")) {
				t.Errorf("%s: non-finite input must give valid JSON with null, got %q", p.name, p.got)
			}
		case err != nil:
			t.Fatalf("%s: reference encoding failed: %v", p.name, err)
		case !bytes.Equal(p.got, want):
			t.Errorf("%s: wire bytes differ from the reference\n got %q\nwant %q", p.name, p.got, want)
		}
	}
}

var wireTable = []wireFixture{
	{name: "make", str: "Honda", expl: "model -> make (0.93)", i: 42, f: 3.5, conf: 0.625, b: true},
	{name: "<&>", str: "a\"b\\c\n\t\r\b\f\x00\x1f\x7f", expl: "", i: -7, f: -0.0, conf: 0},
	{name: " ", str: "  é 日本 \xff\xfe bad", expl: "<script>&amp;</script>", i: math.MaxInt64, f: 1e-7, conf: 1e21},
	{name: "ünï", str: "", expl: "x", i: math.MinInt64, f: 5e-324, conf: 1e-6},
	{name: "zz", str: "z", expl: "z", i: 0, f: 123456789e300, conf: 0.1 + 0.2, b: true},
	{name: "nan", str: "n", expl: "e", i: 1, f: math.NaN(), conf: 0.5},
	{name: "inf", str: "n", expl: "e", i: 1, f: math.Inf(-1), conf: math.Inf(1)},
}

// TestWireMatchesReference pins the batch body, the /join body, stream
// answer lines and projected batch and stream responses to json.Compact
// of the reference encoding, over a table of edge cases.
func TestWireMatchesReference(t *testing.T) {
	for i, fx := range wireTable {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkWire(t, fx) })
	}
}

func FuzzWireEncoding(f *testing.F) {
	for _, fx := range wireTable {
		f.Add(fx.name, fx.str, fx.expl, fx.i, fx.f, fx.conf, fx.b)
	}
	f.Fuzz(func(t *testing.T, name, str, expl string, i int64, fl, conf float64, b bool) {
		checkWire(t, wireFixture{name: name, str: str, expl: expl, i: i, f: fl, conf: conf, b: b})
	})
}

// TestWireSpillsLargeBodies checks a body far larger than the buffer
// reaches the writer in buffer-sized pieces and still matches the
// reference.
func TestWireSpillsLargeBodies(t *testing.T) {
	fx := wireTable[0]
	schema := fx.schema()
	full, _ := fx.tuples()
	rs := &core.ResultSet{}
	for i := 0; i < 2000; i++ {
		rs.Possible = append(rs.Possible, core.Answer{Tuple: full, Confidence: float64(i) / 2000, Explanation: fx.expl})
	}
	var writes int
	rec := httptest.NewRecorder()
	writeSelect(countingWriter{rec, &writes}, "q", "src", rs, schema, nil)
	want, err := refBytes(refSelect("q", "src", rs, schema, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("large body differs from the reference")
	}
	if min := len(want) / wireBufSize; writes < min {
		t.Errorf("%d writes for a %d-byte body, want at least %d", writes, len(want), min)
	}
}

type countingWriter struct {
	http.ResponseWriter
	n *int
}

func (c countingWriter) Write(b []byte) (int, error) {
	*c.n++
	return c.ResponseWriter.Write(b)
}

// TestServedBodiesMatchReference runs real requests through the server
// and compares each body with the reference encoding of the mediator's
// own result for the same query.
func TestServedBodiesMatchReference(t *testing.T) {
	srv, med := knowledgeServer(t, datagen.Cars(4000, 1))
	src, _ := med.Source("cars")
	schema := src.Schema()
	sel := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	for _, tc := range []struct {
		name, sql string
		proj      []string
	}{
		{"batch", "SELECT * FROM cars WHERE body_style = 'Convt'", nil},
		{"batch-projected", "SELECT model, make FROM cars WHERE body_style = 'Convt'", []string{"model", "make"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, tc.sql))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", sel)
			if err != nil {
				t.Fatal(err)
			}
			outSchema := schema
			if tc.proj != nil {
				if rs, outSchema, err = rs.Project(schema, tc.proj); err != nil {
					t.Fatal(err)
				}
			}
			want, err := refBytes(refSelect(sel.String(), "cars", rs, outSchema, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("served body differs from the reference\n got %.300q\nwant %.300q", body, want)
			}
		})
	}

	for _, tc := range []struct {
		name, sql string
		proj      []string
	}{
		{"stream", "SELECT * FROM cars WHERE body_style = 'Convt'", nil},
		{"stream-projected", "SELECT price, model FROM cars WHERE body_style = 'Convt'", []string{"price", "model"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := streamAnswerLines(t, srv, fmt.Sprintf(`{"sql": %q, "no_cache": true}`, tc.sql))
			cfg := med.Config()
			cfg.NoCache = true
			events, err := med.SelectStreamWith(context.Background(), cfg, "cars", sel)
			if err != nil {
				t.Fatal(err)
			}
			outSchema, projCols := schema, []int(nil)
			if tc.proj != nil {
				if outSchema, err = schema.Project(tc.proj...); err != nil {
					t.Fatal(err)
				}
				for _, a := range tc.proj {
					projCols = append(projCols, schema.MustIndex(a))
				}
			}
			var want [][]byte
			for ev := range events {
				if ev.Kind != core.StreamEventAnswer {
					continue
				}
				b, err := refBytes(refStreamAnswer(outSchema, projCols, ev))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, b)
			}
			if len(lines) != len(want) || len(want) == 0 {
				t.Fatalf("%d answer lines served, the reference has %d", len(lines), len(want))
			}
			for i := range want {
				if !bytes.Equal(lines[i], want[i]) {
					t.Fatalf("answer line %d differs\n got %q\nwant %q", i, lines[i], want[i])
				}
			}
		})
	}

	t.Run("join", func(t *testing.T) {
		body := postJoin(t, srv, `{"left_sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "right_sql": "SELECT * FROM cars WHERE certified = 'yes'", "on": ["model", "model"], "k": 4}`)
		spec := core.JoinSpec{LeftSource: "cars", RightSource: "cars", LeftQuery: sel,
			RightQuery:   relation.NewQuery("cars", relation.Eq("certified", relation.String("yes"))),
			LeftJoinAttr: "model", RightJoinAttr: "model", K: 4}
		res, err := med.QueryJoinCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBytes(refJoin("cars", "cars", res, schema, schema))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 || !bytes.Equal(body, want) {
			t.Errorf("served join body differs from the reference (%d answers)\n got %.300q\nwant %.300q", len(res.Answers), body, want)
		}
	})
}

// knowledgeServer serves gd, made 10% incomplete, as source "cars" with
// mined knowledge (α 0, K 10), and hands back the mediator too.
func knowledgeServer(t *testing.T, gd *relation.Relation) (*httptest.Server, *core.Mediator) {
	t.Helper()
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{})
	smpl := ed.Sample(500, rand.New(rand.NewSource(3)))
	k, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	med := core.New(core.Config{Alpha: 0, K: 10})
	med.Register(src, k)
	srv := httptest.NewServer(New(med))
	t.Cleanup(srv.Close)
	return srv, med
}

// streamAnswerLines POSTs a stream and returns its answer lines, each with
// its newline.
func streamAnswerLines(t *testing.T, srv *httptest.Server, body string) [][]byte {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines [][]byte
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if bytes.HasPrefix(line, []byte(`{"event":"answer"`)) {
			lines = append(lines, line)
		}
		if err != nil {
			break
		}
	}
	return lines
}

func postJoin(t *testing.T, srv *httptest.Server, body string) []byte {
	t.Helper()
	resp, err := http.Post(srv.URL+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestNonFiniteFloatValues serves a source whose float attribute holds
// NaN and ±Inf (relation.Decode accepts them from CSV): the /query,
// stream and /join bodies stay valid JSON, with null for those values.
func TestNonFiniteFloatValues(t *testing.T) {
	cars := datagen.Cars(2000, 1)
	schema := relation.MustSchema(append(cars.Schema.Attrs(), relation.Attribute{Name: "rating", Kind: relation.KindFloat})...)
	gd := relation.New("cars", schema)
	for i, tu := range cars.Tuples() {
		rating := relation.Float(float64(i%50) / 10)
		switch i % 3 {
		case 0:
			rating = relation.Float(math.NaN())
		case 1:
			rating = relation.Float(math.Inf(1 - 2*(i%2)))
		}
		gd.MustInsert(append(append(relation.Tuple{}, tu...), rating))
	}
	srv, _ := knowledgeServer(t, gd)

	check := func(name string, body []byte) {
		t.Helper()
		if !json.Valid(body) {
			t.Errorf("%s: invalid JSON: %.300q", name, body)
		}
		if !bytes.Contains(body, []byte(`"rating":null`)) {
			t.Errorf("%s: no null rating in %.300q", name, body)
		}
	}
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	check("/query", body)

	lines := streamAnswerLines(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if len(lines) == 0 {
		t.Fatal("no streamed answers")
	}
	for i, l := range lines {
		if !json.Valid(l) {
			t.Errorf("stream line %d invalid: %q", i, l)
		}
	}
	if all := bytes.Join(lines, nil); !bytes.Contains(all, []byte(`"rating":null`)) {
		t.Errorf("stream: no null rating in %.300q", all)
	}

	check("/join", postJoin(t, srv, `{"left_sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "right_sql": "SELECT * FROM cars WHERE certified = 'yes'", "on": ["model", "model"], "k": 2}`))
}

// TestAggregateNaNIsNull: an aggregate with no defined value is NaN in
// the core; the body must carry null for it, never be empty.
func TestAggregateNaNIsNull(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		sql   string
		nulls []string
	}{
		{"SELECT AVG(price) FROM cars WHERE make = 'NoSuchMake'", []string{"certain", "total"}},
		{"SELECT MIN(make) FROM cars WHERE body_style = 'Convt'", []string{"certain", "possible", "total"}},
	} {
		resp, body := postQuery(t, srv, fmt.Sprintf(`{"sql": %q}`, tc.sql))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.sql, resp.StatusCode, body)
		}
		var got map[string]any
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v in %q", tc.sql, err, body)
		}
		for _, k := range tc.nulls {
			if v, ok := got[k]; !ok || v != nil {
				t.Errorf("%s: %s = %v (present %v), want null", tc.sql, k, v, ok)
			}
		}
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses answers a
// counted 500 with an error body, never a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := &Server{}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Errorf("body %q: %v", rec.Body.Bytes(), err)
	}
	if got := s.serverErrors.Load(); got != 1 {
		t.Errorf("server errors = %d, want 1", got)
	}
}
