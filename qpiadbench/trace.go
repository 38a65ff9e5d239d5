package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/relation"
	"qpiad/internal/sqlish"
)

// span is one timed call into the program, recorded from outside it. A
// span is open until end or endAt records it.
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Time
}

// replayRec is what one traced request's spans measured, in milliseconds.
// NaN means the request had no such span.
type replayRec struct {
	kind                                    reqKind
	serve, mediator, uncached, parse        float64
	base, generate, choose, fetch, tupleKey float64
	hit, coreTTFA, httpTTFA, join           float64
	candidates, kept, transferred           int
}

// tracer keeps spans in memory until the run ends and replays sampled
// requests through the program's exported entry points.
type tracer struct {
	sys *system
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
	recs  []replayRec
}

func newTracer(sys *system) *tracer { return &tracer{sys: sys, t0: time.Now()} }

func (t *tracer) begin(req, parent int64, name string) span {
	return span{id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end closes s now and returns its duration in milliseconds.
func (t *tracer) end(s span) float64 { return t.endAt(s, time.Now()) }

// endAt closes s at the given instant and records it.
func (t *tracer) endAt(s span, at time.Time) float64 {
	s.end = at
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return ms(at.Sub(s.start))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// requestCfg is the per-call configuration the server derives from r.
func (t *tracer) requestCfg(r *request) core.Config {
	cfg := t.sys.med.Config()
	cfg.NoCache = r.noCache || r.kind == kindStream
	if r.topN > 0 {
		cfg.TopN = r.topN
	}
	return cfg
}

// replay runs one request again in-process, one span per public call:
// the full ServeHTTP on a recorder, the full mediator call, then the
// pipeline step by step in the mediator's own order.
func (t *tracer) replay(ctx context.Context, res *result, root span) error {
	r := res.req
	none := math.NaN()
	rec := replayRec{kind: r.kind, serve: none, mediator: none, uncached: none, parse: none,
		base: none, generate: none, choose: none, fetch: none, tupleKey: none,
		hit: none, coreTTFA: none, httpTTFA: none, join: none}
	med, src := t.sys.med, t.sys.world.Src
	req := root.req
	cfg := t.requestCfg(r)

	if r.kind == kindSelect && !cfg.NoCache {
		// Bring the answer cache to the state ServeHTTP will see, so the
		// two calls below take the same path.
		if _, err := med.QuerySelectWithCtx(ctx, cfg, sourceName, r.q.relQuery()); err != nil {
			return fmt.Errorf("traced select: %w", err)
		}
	}
	s := t.begin(req, root.id, "httpapi.ServeHTTP")
	t.sys.api.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", r.path, bytes.NewReader(r.body)))
	rec.serve = t.end(s)

	if r.kind == kindJoin {
		spec := core.JoinSpec{LeftSource: sourceName, RightSource: sourceName, LeftQuery: r.q.relQuery(), RightQuery: r.right.relQuery(),
			LeftJoinAttr: "model", RightJoinAttr: "model", K: r.joinK}
		s = t.begin(req, root.id, "core.QueryJoinCtx")
		_, err := med.QueryJoinCtx(ctx, spec)
		rec.join = t.end(s)
		rec.mediator = rec.join
		if err != nil {
			return fmt.Errorf("traced join: %w", err)
		}
		t.addRec(rec)
		return nil
	}

	q := r.q.relQuery()
	var kept int
	if r.kind == kindStream {
		s = t.begin(req, root.id, "core.SelectStreamWith")
		events, err := med.SelectStreamWith(ctx, cfg, sourceName, q)
		if err != nil {
			return fmt.Errorf("traced stream: %w", err)
		}
		// The base query runs inside SelectStreamWith, so the first event
		// is timed from the call.
		first := t.begin(req, s.id, "core.stream.first_event")
		first.start = s.start
		n := 0
		for range events {
			if n == 0 {
				rec.coreTTFA = t.end(first)
			}
			n++
		}
		rec.mediator = t.end(s)
		rec.httpTTFA = ms(res.ttfa)
	} else {
		before := med.CacheStats().Hits
		s = t.begin(req, root.id, "core.QuerySelectWithCtx")
		rs, err := med.QuerySelectWithCtx(ctx, cfg, sourceName, q)
		rec.mediator = t.end(s)
		if err != nil {
			return fmt.Errorf("traced select: %w", err)
		}
		if !cfg.NoCache && med.CacheStats().Hits > before {
			rec.hit = rec.mediator
		}
		rec.uncached = rec.mediator
		if !cfg.NoCache {
			ucfg := cfg
			ucfg.NoCache = true
			s = t.begin(req, root.id, "core.QuerySelectWithCtx.uncached")
			rs, err = med.QuerySelectWithCtx(ctx, ucfg, sourceName, q)
			rec.uncached = t.end(s)
			if err != nil {
				return fmt.Errorf("traced select: %w", err)
			}
		}
		kept = len(rs.Possible) + len(rs.Unranked)
	}

	s = t.begin(req, root.id, "sqlish.Parse")
	st, err := sqlish.Parse(r.q.sql())
	if err == nil {
		err = st.CoerceTypes(src.Schema())
	}
	rec.parse = t.end(s)
	if err != nil {
		return fmt.Errorf("traced parse: %w", err)
	}

	pipe := t.begin(req, root.id, "core.replay")
	defer t.end(pipe)
	s = t.begin(req, pipe.id, "source.QueryCtx.base")
	base, err := src.QueryCtx(ctx, q)
	rec.base = t.end(s)
	if err != nil {
		return fmt.Errorf("traced base query: %w", err)
	}
	rec.tupleKey = t.keys(req, pipe.id, base)
	s = t.begin(req, pipe.id, "core.GenerateRewrites")
	cands := core.GenerateRewrites(t.sys.world.Know, q, base, src.Schema())
	rec.generate = t.end(s)
	rec.candidates = len(cands)
	s = t.begin(req, pipe.id, "core.ScoreAndSelect")
	chosen := core.ScoreAndSelect(cands, cfg.Alpha, cfg.K, cfg.Ordering)
	rec.choose = t.end(s)
	if r.kind == kindSelect {
		// The stream stops early on its top-N bound; only the batch path
		// fetches every chosen rewrite.
		rows, d := t.fetch(ctx, req, pipe.id, chosen, cfg.Parallel)
		rec.fetch = d
		for _, rr := range rows {
			rec.transferred += len(rr)
		}
		rec.kept = kept
		k := 0.0
		for _, rr := range rows {
			k += t.keys(req, pipe.id, rr)
		}
		rec.tupleKey += k
	}
	t.addRec(rec)
	return nil
}

func (t *tracer) addRec(rec replayRec) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// keySink keeps the tuple keys observable so the calls are not removed.
var keySink atomic.Int64

// keys times Tuple.Key over rows, as the mediator's dedup computes it.
func (t *tracer) keys(req, parent int64, rows []relation.Tuple) float64 {
	s := t.begin(req, parent, "relation.Tuple.Key")
	n := 0
	for _, row := range rows {
		n += len(row.Key())
	}
	keySink.Add(int64(n))
	return t.end(s)
}

// fetch issues the chosen rewrites with the mediator's parallelism, one
// span per source query under one span for the whole fetch.
func (t *tracer) fetch(ctx context.Context, req, parent int64, chosen []core.RewrittenQuery, par int) ([][]relation.Tuple, float64) {
	all := t.begin(req, parent, "source.rewrite_fetch")
	rows := make([][]relation.Tuple, len(chosen))
	if par < 1 {
		par = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par && w < len(chosen); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := t.begin(req, all.id, "source.QueryCtx")
				rows[i], _ = t.sys.world.Src.QueryCtx(ctx, chosen[i].Query) // a failed fetch only shortens the replay
				t.end(s)
			}
		}()
	}
	for i := range chosen {
		next <- i
	}
	close(next)
	wg.Wait()
	return rows, t.end(all)
}

// sampler decides which requests a traced phase replays: joins, a
// minority of join-stream's mix, at a higher share than the rest.
type sampler struct{ rng *rand.Rand }

func (s *sampler) take(r *request) bool {
	p := traceShare
	if r.kind == kindJoin {
		p = traceShareJoin
	}
	return s.rng.Float64() < p
}

// layerStats turns the replay records into per-layer metrics.
func (t *tracer) layerStats() map[string]stat {
	pick := func(f func(r replayRec) float64, kinds ...reqKind) []float64 {
		var out []float64
		for _, r := range t.recs {
			if len(kinds) > 0 && !hasKind(kinds, r.kind) {
				continue
			}
			if v := f(r); !math.IsNaN(v) {
				out = append(out, v)
			}
		}
		return out
	}
	med := func(vals []float64) stat { return stat{value: median(vals), n: len(vals)} }
	var kept, transferred, cands float64
	nsel := 0
	for _, r := range t.recs {
		if r.kind != kindJoin {
			cands += float64(r.candidates)
		}
		if r.kind == kindSelect {
			kept += float64(r.kept)
			transferred += float64(r.transferred)
			nsel++
		}
	}
	nonJoin := pick(func(r replayRec) float64 { return r.base }, kindSelect, kindStream)
	out := map[string]stat{
		"httpapi.serve_ms":        med(pick(func(r replayRec) float64 { return r.serve })),
		"httpapi.encode_ms":       med(pick(func(r replayRec) float64 { return r.serve - r.mediator })),
		"httpapi.stream_flush_ms": med(pick(func(r replayRec) float64 { return r.httpTTFA - r.coreTTFA }, kindStream)),
		"sqlish.parse_us":         med(pick(func(r replayRec) float64 { return r.parse * 1000 }, kindSelect, kindStream)),
		"qcache.hit_ms":           med(pick(func(r replayRec) float64 { return r.hit })),
		"source.base_ms":          med(nonJoin),
		"source.rewrite_fetch_ms": med(pick(func(r replayRec) float64 { return r.fetch }, kindSelect)),
		"source.useful_ratio":     {value: ratio(kept, transferred), n: nsel},
		"core.generate_ms":        med(pick(func(r replayRec) float64 { return r.generate })),
		"core.candidates_per_req": {value: ratio(cands, float64(len(nonJoin))), n: len(nonJoin)},
		"core.choose_us":          med(pick(func(r replayRec) float64 { return r.choose * 1000 }, kindSelect, kindStream)),
		"core.select_self_ms":     med(pick(func(r replayRec) float64 { return r.uncached - r.base - r.generate - r.choose - r.fetch }, kindSelect)),
		"core.stream_ttfa_ms":     med(pick(func(r replayRec) float64 { return r.coreTTFA }, kindStream)),
		"core.join_ms":            med(pick(func(r replayRec) float64 { return r.join }, kindJoin)),
		"relation.tuple_key_ms":   med(pick(func(r replayRec) float64 { return r.tupleKey })),
		"bench.traced_requests":   {value: float64(len(t.recs)), n: len(t.recs)},
	}
	return out
}

func hasKind(kinds []reqKind, k reqKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// writeSpans writes every span as one JSON line, with its self time: its
// duration minus the part of it its child spans cover.
func (t *tracer) writeSpans(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(tm time.Time) int64 { return tm.Sub(t.t0).Microseconds() }
	for _, s := range t.spans {
		line := struct {
			ID      int64  `json:"id"`
			Parent  int64  `json:"parent"`
			Req     int64  `json:"req"`
			Name    string `json:"name"`
			StartUS int64  `json:"start_us"`
			EndUS   int64  `json:"end_us"`
			SelfUS  int64  `json:"self_us"`
		}{s.id, s.parent, s.req, s.name, us(s.start), us(s.end), selfTime(s, children[s.id]).Microseconds()}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}

// selfTime is s's duration minus the union of its children's intervals
// (clipped to s).
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.end.Sub(s.start) - covered
}
