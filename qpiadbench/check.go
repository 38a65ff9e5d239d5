package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"qpiad/internal/core"
	"qpiad/internal/eval"
	"qpiad/internal/relation"
)

// oracle answers queries by a naive full scan of the source relation. It
// shares no code with the mediator's query path: predicates are evaluated
// here, value by value.
type oracle struct {
	world *eval.World
	attrs []string
	cols  map[string]int
	byID  map[int64]relation.Tuple
	idCol int
	// scans caches, per SQL, the ids of matching tuples, sorted. Only the
	// checker goroutine scans.
	scans map[string][]int64
}

func newOracle(w *eval.World) (*oracle, error) {
	rel := w.Src.Relation()
	o := &oracle{world: w, attrs: rel.Schema.Names(), cols: map[string]int{}, byID: map[int64]relation.Tuple{}, scans: map[string][]int64{}}
	for i, a := range o.attrs {
		o.cols[a] = i
	}
	id, ok := o.cols["id"]
	if !ok {
		return nil, errors.New("source relation has no id attribute")
	}
	o.idCol = id
	for _, t := range rel.Tuples() {
		o.byID[t[id].IntVal()] = t
	}
	return o, nil
}

func (o *oracle) matches(t relation.Tuple, q userQuery) bool {
	for _, p := range q {
		v := t[o.cols[p.attr]]
		switch {
		case v.IsNull():
			return false
		case p.isInt:
			if v.Kind() != relation.KindInt || v.IntVal() != p.num {
				return false
			}
		default:
			if v.Kind() != relation.KindString || v.Str() != p.str {
				return false
			}
		}
	}
	return true
}

// scan returns the ids of the tuples that certainly satisfy q, sorted.
func (o *oracle) scan(q userQuery) []int64 {
	key := q.sql()
	if ids, ok := o.scans[key]; ok {
		return ids
	}
	ids := []int64{}
	for _, t := range o.world.Src.Relation().Tuples() {
		if o.matches(t, q) {
			ids = append(ids, t[o.idCol].IntVal())
		}
	}
	slices.Sort(ids)
	o.scans[key] = ids
	return ids
}

// row checks that an answer's attribute map is exactly a source tuple and
// returns that tuple's id.
func (o *oracle) row(vals map[string]any) (int64, error) {
	idv, ok := vals["id"].(float64)
	if !ok {
		return 0, fmt.Errorf("answer without a numeric id: %v", vals)
	}
	id := int64(idv)
	t, ok := o.byID[id]
	if !ok {
		return 0, fmt.Errorf("answer id %d is not in the source", id)
	}
	if len(vals) != len(o.attrs) {
		return 0, fmt.Errorf("answer %d has %d attributes, the source %d", id, len(vals), len(o.attrs))
	}
	for i, a := range o.attrs {
		if !sameValue(vals[a], t[i]) {
			return 0, fmt.Errorf("answer %d: %s = %v, the source holds %v", id, a, vals[a], t[i])
		}
	}
	return id, nil
}

func sameValue(j any, v relation.Value) bool {
	switch v.Kind() {
	case relation.KindNull:
		return j == nil
	case relation.KindInt:
		f, ok := j.(float64)
		return ok && f == float64(v.IntVal())
	case relation.KindString:
		s, ok := j.(string)
		return ok && s == v.Str()
	}
	return false
}

// nullOnConstrained reports whether the answer is null on an attribute q
// constrains — what makes it a possible rather than a certain answer.
func nullOnConstrained(vals map[string]any, q userQuery) bool {
	for _, p := range q {
		if vals[p.attr] == nil {
			return true
		}
	}
	return false
}

type answerJSON struct {
	Values     map[string]any `json:"values"`
	Certain    bool           `json:"certain"`
	Confidence float64        `json:"confidence"`
}

// verdict is the outcome of checking one distinct response body.
type verdict struct {
	err    error
	digest string
	// rewrites is len(rewrites_issued) of a batch select; pairs is
	// pairs_issued of a join.
	rewrites, pairs int
	// possible lists the ids of possible answers (ranked and unranked).
	possible []int64
}

// checker verifies every response on its own goroutine, off the
// clients' request path. A body byte-identical to one already verified for
// the same request shares its verdict; any other body is parsed and
// checked in full.
type checker struct {
	o     *oracle
	store map[string]string // digests of earlier runs in this checkout

	queue   chan *result
	pending sync.WaitGroup
	done    chan struct{}
	bufs    sync.Pool

	// Owned by the checker goroutine; read by others only after drain.
	verified map[string]*verdict // request key + body hash → verdict
	digests  map[string]string   // request key → answer digest in this run
}

// checkQueue bounds the responses waiting to be checked; a client blocks
// only if the checker falls this far behind.
const checkQueue = 128

func newChecker(o *oracle, store map[string]string) *checker {
	c := &checker{o: o, store: store, queue: make(chan *result, checkQueue), done: make(chan struct{}),
		verified: map[string]*verdict{}, digests: map[string]string{}}
	c.bufs.New = func() any { return new(bytes.Buffer) }
	go func() {
		defer close(c.done)
		for res := range c.queue {
			c.process(res)
			c.pending.Done()
		}
	}()
	return c
}

func (c *checker) buffer() *bytes.Buffer { return c.bufs.Get().(*bytes.Buffer) }

func (c *checker) release(b *bytes.Buffer) {
	b.Reset()
	c.bufs.Put(b)
}

// submit queues a response for checking.
func (c *checker) submit(res *result) {
	c.pending.Add(1)
	c.queue <- res
}

// drain waits until every submitted response is checked.
func (c *checker) drain() { c.pending.Wait() }

// stop ends the checker goroutine once the queue is empty.
func (c *checker) stop() {
	close(c.queue)
	<-c.done
}

var (
	answerPrefix  = []byte(`{"event":"answer"`)
	summaryPrefix = []byte(`{"event":"summary"`)
)

// process checks one response and releases its body.
func (c *checker) process(res *result) {
	body := res.body.Bytes()
	var hash [32]byte
	if res.req.kind == kindStream {
		// Rewrite events carry timing-dependent attempt counts; the answer
		// lines are what must repeat exactly.
		h := sha256.New()
		for rest := body; len(rest) > 0; {
			line := rest
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i+1], rest[i+1:]
			} else {
				rest = nil
			}
			switch {
			case bytes.HasPrefix(line, answerPrefix):
				h.Write(line)
			case bytes.HasPrefix(line, summaryPrefix):
				var ev struct {
					Summary struct {
						Skipped   int `json:"skipped_rewrites"`
						Cancelled int `json:"cancelled_rewrites"`
					} `json:"summary"`
				}
				if err := json.Unmarshal(line, &ev); err == nil {
					res.skipped, res.cancelled = ev.Summary.Skipped, ev.Summary.Cancelled
				}
			}
		}
		h.Sum(hash[:0])
	} else {
		hash = sha256.Sum256(body)
	}
	res.v = c.check(res.req, hash, body)
	res.err = res.v.err
	c.release(res.body)
	res.body = nil
}

// check returns the verdict for a response. bodyHash identifies the body
// (for streams, only its answer lines); body is the full response.
func (c *checker) check(r *request, bodyHash [32]byte, body []byte) *verdict {
	vkey := r.key + "\x00" + string(bodyHash[:])
	if v, ok := c.verified[vkey]; ok {
		return v
	}
	var v *verdict
	switch r.kind {
	case kindSelect:
		v = c.checkSelect(r, body)
	case kindStream:
		v = c.checkStream(r, body)
	default:
		v = c.checkJoin(r, body)
	}
	if v.err == nil {
		if prev, ok := c.digests[r.key]; ok && prev != v.digest {
			v.err = fmt.Errorf("answer digest changed between repeats of %s", r.key)
		} else if prev, ok := c.store[r.key]; ok && prev != v.digest {
			v.err = fmt.Errorf("answer digest differs from an earlier run for %s", r.key)
		} else {
			c.digests[r.key] = v.digest
		}
	}
	c.verified[vkey] = v
	return v
}

func (c *checker) checkSelect(r *request, body []byte) *verdict {
	var resp struct {
		Certain  []answerJSON `json:"certain"`
		Possible []answerJSON `json:"possible"`
		Unranked []answerJSON `json:"unranked"`
		Rewrites []string     `json:"rewrites_issued"`
		Degraded bool         `json:"degraded"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return &verdict{err: fmt.Errorf("decoding /query response: %w", err)}
	}
	if resp.Degraded {
		return &verdict{err: fmt.Errorf("degraded answer for %s", r.key)}
	}
	v := c.checkAnswers(r.q, resp.Certain, resp.Possible, resp.Unranked)
	v.rewrites = len(resp.Rewrites)
	return v
}

func (c *checker) checkStream(r *request, body []byte) *verdict {
	var certain, possible, unranked []answerJSON
	summary := false
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		var ev struct {
			Event    string      `json:"event"`
			Answer   *answerJSON `json:"answer"`
			Unranked bool        `json:"unranked"`
			Summary  *struct {
				Degraded bool `json:"degraded"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return &verdict{err: fmt.Errorf("decoding stream line: %w", err)}
		}
		if summary {
			return &verdict{err: errors.New("stream continues after its summary")}
		}
		switch {
		case ev.Event == "answer" && ev.Answer != nil:
			switch {
			case ev.Answer.Certain:
				if len(possible)+len(unranked) > 0 {
					return &verdict{err: errors.New("certain answer streamed after possible answers")}
				}
				certain = append(certain, *ev.Answer)
			case ev.Unranked:
				unranked = append(unranked, *ev.Answer)
			default:
				possible = append(possible, *ev.Answer)
			}
		case ev.Event == "summary" && ev.Summary != nil:
			if ev.Summary.Degraded {
				return &verdict{err: fmt.Errorf("degraded stream for %s", r.key)}
			}
			summary = true
		case ev.Event == "rewrite":
		default:
			return &verdict{err: fmt.Errorf("unexpected stream event %q", ev.Event)}
		}
	}
	if !summary {
		return &verdict{err: errors.New("stream ended without a summary")}
	}
	return c.checkAnswers(r.q, certain, possible, unranked)
}

// checkAnswers checks one selection's answers: the certain answers are
// exactly the naive scan, every possible answer is a source tuple null on
// a constrained attribute, and no tuple appears twice.
func (c *checker) checkAnswers(q userQuery, certain, possible, unranked []answerJSON) *verdict {
	h := sha256.New()
	seen := map[int64]bool{}
	got := make([]int64, 0, len(certain))
	for _, a := range certain {
		id, err := c.o.row(a.Values)
		if err != nil {
			return &verdict{err: err}
		}
		if !a.Certain || a.Confidence != 1 {
			return &verdict{err: fmt.Errorf("certain answer %d marked certain=%v confidence=%v", id, a.Certain, a.Confidence)}
		}
		if seen[id] {
			return &verdict{err: fmt.Errorf("duplicate answer id %d", id)}
		}
		seen[id] = true
		got = append(got, id)
		fmt.Fprintf(h, "C %d\n", id)
	}
	want := c.o.scan(q)
	sorted := slices.Clone(got)
	slices.Sort(sorted)
	if !slices.Equal(sorted, want) {
		return &verdict{err: fmt.Errorf("certain answers of %s: %d returned, the full scan finds %d", q.sql(), len(got), len(want))}
	}
	v := &verdict{}
	for _, sec := range []struct {
		tag  string
		list []answerJSON
	}{{"P", possible}, {"U", unranked}} {
		for _, a := range sec.list {
			id, err := c.o.row(a.Values)
			if err != nil {
				return &verdict{err: err}
			}
			if a.Certain {
				return &verdict{err: fmt.Errorf("possible answer %d marked certain", id)}
			}
			if !nullOnConstrained(a.Values, q) {
				return &verdict{err: fmt.Errorf("possible answer %d of %s is null on no constrained attribute", id, q.sql())}
			}
			if seen[id] {
				return &verdict{err: fmt.Errorf("answer id %d of %s returned twice or as both certain and possible", id, q.sql())}
			}
			seen[id] = true
			v.possible = append(v.possible, id)
			fmt.Fprintf(h, "%s %d %s\n", sec.tag, id, strconv.FormatFloat(a.Confidence, 'g', -1, 64))
		}
	}
	v.digest = hex.EncodeToString(h.Sum(nil))
	return v
}

func (c *checker) checkJoin(r *request, body []byte) *verdict {
	var resp struct {
		Answers []struct {
			Left       map[string]any `json:"left"`
			Right      map[string]any `json:"right"`
			JoinValue  any            `json:"join_value"`
			Certain    bool           `json:"certain"`
			Confidence float64        `json:"confidence"`
		} `json:"answers"`
		PairsIssued int  `json:"pairs_issued"`
		Degraded    bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return &verdict{err: fmt.Errorf("decoding /join response: %w", err)}
	}
	if resp.Degraded {
		return &verdict{err: fmt.Errorf("degraded join for %s", r.key)}
	}
	// The certain pairs must be exactly the nested-loop join of the two
	// sides' full scans on a non-null, equal model.
	model := c.o.cols["model"]
	want := map[[2]int64]bool{}
	for _, l := range c.o.scan(r.q) {
		lm := c.o.byID[l][model]
		for _, rt := range c.o.scan(r.right) {
			if rm := c.o.byID[rt][model]; !lm.IsNull() && !rm.IsNull() && lm.Str() == rm.Str() {
				want[[2]int64{l, rt}] = true
			}
		}
	}
	h := sha256.New()
	seen := map[[2]int64]bool{}
	certain := 0
	for _, a := range resp.Answers {
		l, err := c.o.row(a.Left)
		if err != nil {
			return &verdict{err: err}
		}
		rt, err := c.o.row(a.Right)
		if err != nil {
			return &verdict{err: err}
		}
		pair := [2]int64{l, rt}
		if seen[pair] {
			return &verdict{err: fmt.Errorf("join pair %v returned twice", pair)}
		}
		seen[pair] = true
		tag := "P"
		if a.Certain {
			tag = "C"
			certain++
			if !want[pair] {
				return &verdict{err: fmt.Errorf("certain join pair %v is not in the nested-loop join", pair)}
			}
			if jv, ok := a.JoinValue.(string); !ok || jv != a.Left["model"] {
				return &verdict{err: fmt.Errorf("certain join pair %v joined on %v", pair, a.JoinValue)}
			}
		} else if want[pair] {
			return &verdict{err: fmt.Errorf("join pair %v of two certain answers is marked possible", pair)}
		}
		fmt.Fprintf(h, "%s %d %d %s\n", tag, l, rt, strconv.FormatFloat(a.Confidence, 'g', -1, 64))
	}
	if certain != len(want) {
		return &verdict{err: fmt.Errorf("join %s: %d certain pairs returned, the nested-loop join finds %d", r.key, certain, len(want))}
	}
	return &verdict{digest: hex.EncodeToString(h.Sum(nil)), pairs: resp.PairsIssued}
}

// judge scores possible answers against the world's hidden ground truth.
type judge struct {
	returned, relevant, present int
	queries                     int
}

func (j *judge) add(o *oracle, q userQuery, possible []int64) {
	rq := q.relQuery()
	j.queries++
	j.returned += len(possible)
	for _, id := range possible {
		if o.world.IsRelevant(core.Answer{Tuple: o.byID[id]}, rq) {
			j.relevant++
		}
	}
	j.present += o.world.RelevantPossibleCount(rq)
}

func (j *judge) precision() float64 { return ratio(float64(j.relevant), float64(j.returned)) }
func (j *judge) recall() float64    { return ratio(float64(j.relevant), float64(j.present)) }

// digestFile keeps answer digests across runs in one checkout, so a
// query's answers must also agree between runs.
const digestFile = ".bench_build/qpiadbench/digests.json"

func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	b, err := os.ReadFile(digestFile)
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", digestFile, err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", digestFile, err)
	}
	return m, nil
}

// saveDigests merges this run's digests into the file. Call it after
// drain.
func (c *checker) saveDigests() error {
	merged := make(map[string]string, len(c.store)+len(c.digests))
	for k, v := range c.store {
		merged[k] = v
	}
	for k, v := range c.digests {
		merged[k] = v
	}
	b, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		return err
	}
	tmp := digestFile + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, digestFile)
}

// firstLine trims an error message for the report.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
