package httpapi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/nbc"
	"qpiad/internal/planner"
	"qpiad/internal/source"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := knowledgeServer(t, datagen.Cars(4000, 1))
	return srv
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSources(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/sources")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []sourceInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "cars" || !infos[0].HasKnowledge {
		t.Errorf("sources = %+v", infos)
	}
	if infos[0].Size == 0 || len(infos[0].Schema) != 8 {
		t.Errorf("source info = %+v", infos[0])
	}
}

func TestKnowledge(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/knowledge?source=cars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info knowledgeInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if len(info.AFDs) == 0 {
		t.Error("no AFDs reported")
	}
	if len(info.Pruned) == 0 {
		t.Error("id-based AFDs should be reported as pruned")
	}
	// Errors.
	if resp, _ := http.Get(srv.URL + "/knowledge"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing source param: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/knowledge?source=nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown source: %d", resp.StatusCode)
	}
}

func TestQuerySelection(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) == 0 {
		t.Error("no certain answers")
	}
	if len(qr.Possible) == 0 {
		t.Error("no possible answers")
	}
	for _, a := range qr.Possible {
		if a.Values["body_style"] != nil {
			t.Fatalf("possible answer not null on constrained attr: %v", a.Values)
		}
		if a.Confidence <= 0 || a.Confidence > 1 {
			t.Fatalf("confidence %v", a.Confidence)
		}
		if a.Explanation == "" {
			t.Fatal("missing explanation")
		}
	}
	if len(qr.Rewrites) == 0 || qr.Generated == 0 {
		t.Error("rewrite accounting missing")
	}
}

func TestQueryProjection(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT make, model FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) == 0 {
		t.Fatal("no answers")
	}
	if len(qr.Certain[0].Values) != 2 {
		t.Errorf("projected values = %v", qr.Certain[0].Values)
	}
}

func TestQueryAggregate(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT COUNT(*) FROM cars WHERE body_style = 'Convt'", "k": -1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar aggResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Total == nil || ar.Certain == nil || *ar.Total < *ar.Certain || *ar.Certain == 0 {
		t.Errorf("aggregate = %+v", ar)
	}
}

func TestQueryWithOverrides(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'", "alpha": 1, "k": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rewrites) > 2 {
		t.Errorf("K override ignored: %d rewrites", len(qr.Rewrites))
	}
	// The override must not leak into later requests.
	_, body = postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	var qr2 queryResponse
	if err := json.Unmarshal(body, &qr2); err != nil {
		t.Fatal(err)
	}
	if len(qr2.Rewrites) <= 2 {
		t.Errorf("config override leaked: %d rewrites", len(qr2.Rewrites))
	}
}

func TestQueryOrderByAndLimit(t *testing.T) {
	srv := testServer(t)
	resp, body := postQuery(t, srv,
		`{"sql": "SELECT * FROM cars WHERE body_style = 'Convt' ORDER BY price DESC LIMIT 3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Certain) != 3 {
		t.Fatalf("LIMIT ignored: %d certain answers", len(qr.Certain))
	}
	prev := 1e18
	for _, a := range qr.Certain {
		p := a.Values["price"].(float64) // JSON numbers decode as float64
		if p > prev {
			t.Fatalf("not sorted by price DESC: %v after %v", p, prev)
		}
		prev = p
	}
	if len(qr.Possible) > 3 {
		t.Errorf("LIMIT must also cap possible answers: %d", len(qr.Possible))
	}
}

func TestQueryErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		body string
		code int
		want string
	}{
		{`not json`, http.StatusBadRequest, "bad request"},
		{`{}`, http.StatusBadRequest, "missing sql"},
		{`{"sql": "DROP TABLE cars"}`, http.StatusBadRequest, "sqlish"},
		{`{"sql": "SELECT * FROM nope"}`, http.StatusNotFound, "unknown source"},
		{`{"sql": "SELECT * FROM cars WHERE nope = 1"}`, http.StatusBadRequest, "unknown attribute"},
	}
	for _, c := range cases {
		resp, body := postQuery(t, srv, c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%q: status %d want %d (%s)", c.body, resp.StatusCode, c.code, body)
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%q: body %q should contain %q", c.body, body, c.want)
		}
	}
}

// TestQueryExplainPlanner checks WithExplain attaches the planner section to
// /query responses and that it reflects the mediator's planner config.
func TestQueryExplainPlanner(t *testing.T) {
	gd := datagen.Cars(4000, 1)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 2)
	src := source.New("cars", ed, source.Capabilities{})
	smpl := ed.Sample(500, rand.New(rand.NewSource(3)))
	k, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	med := core.New(core.Config{Alpha: 0, K: 10, Planner: &planner.Config{Scheduler: planner.NewScheduler(2)}})
	med.Register(src, k)
	srv := httptest.NewServer(New(med, WithExplain()))
	t.Cleanup(srv.Close)

	resp, body := postQuery(t, srv, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Planner == nil {
		t.Fatal("explain server should attach a planner section")
	}
	if !qr.Planner.Enabled {
		t.Error("planner section should report enabled")
	}
	if qr.Planner.Scheduler == nil || qr.Planner.Scheduler.Admitted == 0 {
		t.Errorf("scheduler should have admitted rewrite fetches: %+v", qr.Planner.Scheduler)
	}

	// Without the option the section stays absent.
	plain := testServer(t)
	_, body = postQuery(t, plain, `{"sql": "SELECT * FROM cars WHERE body_style = 'Convt'"}`)
	if strings.Contains(string(body), `"planner"`) {
		t.Error("plain server should not attach a planner section")
	}
}
