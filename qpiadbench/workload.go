package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"qpiad/internal/datagen"
	"qpiad/internal/relation"
)

// reqKind is the endpoint a generated request goes to.
type reqKind uint8

const (
	kindSelect reqKind = iota // POST /query
	kindStream                // POST /query?stream=1
	kindJoin                  // POST /join
)

// pred is one equality predicate of a generated query.
type pred struct {
	attr  string
	str   string // value of a string attribute
	num   int64  // value of an int attribute
	isInt bool
}

func strPred(attr, v string) pred { return pred{attr: attr, str: v} }
func intPred(attr string, v int64) pred {
	return pred{attr: attr, num: v, isInt: true}
}

// userQuery is a conjunction of equality predicates over the cars source.
type userQuery []pred

func (q userQuery) sql() string {
	parts := make([]string, len(q))
	for i, p := range q {
		if p.isInt {
			parts[i] = fmt.Sprintf("%s = %d", p.attr, p.num)
		} else {
			parts[i] = fmt.Sprintf("%s = '%s'", p.attr, p.str)
		}
	}
	return "SELECT * FROM cars WHERE " + strings.Join(parts, " AND ")
}

// relQuery is the query as the mediator's relation package spells it,
// used by the in-process replay and the ground-truth judge.
func (q userQuery) relQuery() relation.Query {
	preds := make([]relation.Predicate, len(q))
	for i, p := range q {
		v := relation.String(p.str)
		if p.isInt {
			v = relation.Int(p.num)
		}
		preds[i] = relation.Eq(p.attr, v)
	}
	return relation.NewQuery(sourceName, preds...)
}

// request is one generated HTTP request. The server sees only path and
// body; the rest is what the benchmark needs to check the answer.
type request struct {
	kind    reqKind
	q       userQuery // the selection, or the join's left side
	right   userQuery // the join's right side
	topN    int
	noCache bool
	joinK   int
	path    string
	body    []byte
	// key identifies the request for answer digests: identical keys must
	// produce identical answers.
	key string
}

type queryBody struct {
	SQL     string `json:"sql"`
	NoCache bool   `json:"no_cache,omitempty"`
	TopN    int    `json:"top_n,omitempty"`
}

type joinBody struct {
	LeftSQL  string    `json:"left_sql"`
	RightSQL string    `json:"right_sql"`
	On       [2]string `json:"on"`
	K        int       `json:"k"`
}

func newSelect(q userQuery, noCache bool) *request {
	r := &request{kind: kindSelect, q: q, noCache: noCache, path: "/query"}
	r.body = mustJSON(queryBody{SQL: q.sql(), NoCache: noCache})
	r.key = "select " + q.sql()
	return r
}

func newStream(q userQuery, topN int) *request {
	r := &request{kind: kindStream, q: q, topN: topN, path: "/query?stream=1"}
	r.body = mustJSON(queryBody{SQL: q.sql(), NoCache: true, TopN: topN})
	r.key = fmt.Sprintf("stream top_n=%d %s", topN, q.sql())
	return r
}

func newJoin(left, right userQuery, k int) *request {
	r := &request{kind: kindJoin, q: left, right: right, joinK: k, path: "/join"}
	r.body = mustJSON(joinBody{LeftSQL: left.sql(), RightSQL: right.sql(), On: [2]string{"model", "model"}, K: k})
	r.key = fmt.Sprintf("join k=%d %s | %s", k, left.sql(), right.sql())
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return b
}

// generator draws a workload's requests. Each generator owns its random
// source, so a seed fixes the whole sequence.
type generator interface {
	next() *request
}

// workload fixes a server configuration and a load shape.
type workload struct {
	name string
	// latency is the simulated per-query latency of the source; jitter
	// adds a seeded uniform [0, jitter) delay fixed per query key.
	latency, jitter time.Duration
	// cacheSize is core.Config.CacheSize (0 = the server default).
	cacheSize int
	// planner turns on the planner and cross-query scheduler, as
	// qpiad-server -planner does.
	planner bool
	// rate > 0 makes the loop open at this many requests per second;
	// otherwise each client runs a closed loop.
	rate float64
	// newGen builds the request generator for one client (or for the
	// open-loop dispatcher, client 0).
	newGen func(seed int64) generator
	// quality lists the fixed set of distinct selections judged against
	// the ground truth.
	quality func() []userQuery
}

const (
	sourceName = "cars"
	// webdbRate is select-webdb's fixed open-loop rate (req/s), below half
	// of the ~160 req/s two connections sustain, so the connection queue
	// stays short and p99 steady from run to run.
	webdbRate = 60.0
	// webdbCache is select-webdb's answer-cache capacity (entries).
	webdbCache = 192
	// webdbZipf is the skew of select-webdb's query popularity.
	webdbZipf = 0.6
	// webdbRanking seeds the fixed popularity ranking of select-webdb's
	// universe and the draws of its deck; the run's seed orders the deck.
	webdbRanking = 1
	// webdbQualityStride picks every n-th query of select-webdb's universe
	// for judging.
	webdbQualityStride = 7
)

var workloads = []*workload{
	{
		name:    "select-cpu",
		newGen:  newPointGen,
		quality: pointQueries,
	},
	{
		name:      "select-webdb",
		latency:   2 * time.Millisecond,
		jitter:    6 * time.Millisecond,
		cacheSize: webdbCache,
		rate:      webdbRate,
		newGen:    newZipfGen,
		quality:   webdbQuality,
	},
	{
		name:    "join-stream",
		latency: 2 * time.Millisecond,
		jitter:  2 * time.Millisecond,
		planner: true,
		newGen:  newMixGen,
		quality: pointQueries,
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// bodyStyles is the cars world's body-style domain.
var bodyStyles = []string{"Sedan", "Convt", "Coupe", "Wagon", "Truck", "SUV"}

// firstYear and years span the generated model years.
const (
	firstYear = 1996
	years     = 10
)

// deck deals a fixed multiset of cards in rounds, each round in a new
// seeded order. Every seed thus sends the same mix and only the order
// differs, which keeps run-to-run spread down.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	pos   int
}

func newDeck[T any](rng *rand.Rand, cards []T) *deck[T] {
	return &deck[T]{rng: rng, cards: append([]T(nil), cards...)}
}

func (d *deck[T]) next() T {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// pointCards is the load harness's point class as a deck: equality on
// body_style, make or model with one third of the weight each, the make
// taken from a base model (so makes with more models come up more often).
func pointCards() []userQuery {
	var out []userQuery
	per := len(datagen.CarModels) / len(bodyStyles)
	for _, s := range bodyStyles {
		for i := 0; i < per; i++ {
			out = append(out, userQuery{strPred("body_style", s)})
		}
	}
	for _, m := range datagen.CarModels {
		out = append(out, userQuery{strPred("make", m.Make)}, userQuery{strPred("model", m.Model)})
	}
	return out
}

// pointQueries lists the distinct point queries in deck order.
func pointQueries() []userQuery {
	seen := map[string]bool{}
	var out []userQuery
	for _, q := range pointCards() {
		if !seen[q.sql()] {
			seen[q.sql()] = true
			out = append(out, q)
		}
	}
	return out
}

// pointGen is select-cpu: uncached point selects.
type pointGen struct{ points *deck[userQuery] }

func newPointGen(seed int64) generator {
	return &pointGen{points: newDeck(rand.New(rand.NewSource(seed)), pointCards())}
}

func (g *pointGen) next() *request { return newSelect(g.points.next(), true) }

// webdbMaxRows caps the catalog's expected answer count of a
// select-webdb query, so its responses stay small.
const webdbMaxRows = 300

// expectedRows estimates from the car catalog how many of the source's
// tuples certainly match q.
func expectedRows(q userQuery) float64 {
	total := 0.0
	for _, m := range datagen.ExpandedModels {
		total += m.Popularity
	}
	sum := 0.0
	for _, m := range datagen.ExpandedModels {
		p := m.Popularity / total
		for _, pr := range q {
			switch pr.attr {
			case "model":
				if m.Model != pr.str {
					p = 0
				}
			case "make":
				if m.Make != pr.str {
					p = 0
				}
			case "year":
				p /= years
			case "body_style":
				ps := 0.0
				for i, st := range m.Styles {
					if st == pr.str {
						ps = m.StyleProbs[i]
					}
				}
				p *= ps
			}
		}
		sum += p
	}
	return sum * worldN * (1 - trainFrac)
}

// webdbUniverse lists select-webdb's selective queries in a fixed order:
// every model, model+year, make+body_style and body_style+year the
// catalog can produce whose expected answer count is at most
// webdbMaxRows.
func webdbUniverse() []userQuery {
	var all []userQuery
	styles := map[[2]string]bool{}
	for _, m := range datagen.ExpandedModels {
		all = append(all, userQuery{strPred("model", m.Model)})
		for y := 0; y < years; y++ {
			all = append(all, userQuery{strPred("model", m.Model), intPred("year", int64(firstYear+y))})
		}
		for _, s := range m.Styles {
			styles[[2]string{m.Make, s}] = true
		}
	}
	pairs := make([][2]string, 0, len(styles))
	for p := range styles {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		all = append(all, userQuery{strPred("make", p[0]), strPred("body_style", p[1])})
	}
	for _, s := range bodyStyles {
		for y := 0; y < years; y++ {
			all = append(all, userQuery{strPred("body_style", s), intPred("year", int64(firstYear+y))})
		}
	}
	var out []userQuery
	for _, q := range all {
		if expectedRows(q) <= webdbMaxRows {
			out = append(out, q)
		}
	}
	return out
}

// webdbQuality is every webdbQualityStride-th query of the universe, so
// each query class is judged in proportion.
func webdbQuality() []userQuery {
	var out []userQuery
	for i, q := range webdbUniverse() {
		if i%webdbQualityStride == 0 {
			out = append(out, q)
		}
	}
	return out
}

// webdbDeck is the size of select-webdb's deck: the requests a 15-second
// measured phase sends at webdbRate.
const webdbDeck = 900

// zipfGen is select-webdb: cached selective selects whose popularity
// follows a Zipf law over the universe in a fixed shuffled order. The
// deck's cards are drawn once from that law under webdbRanking, so every
// seed sends the same multiset of queries and only the order, and with it
// which requests hit the cache, differs.
type zipfGen struct{ queries *deck[userQuery] }

func newZipfGen(seed int64) generator {
	u := webdbUniverse()
	fixed := rand.New(rand.NewSource(webdbRanking))
	fixed.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	cdf := make([]float64, len(u))
	sum := 0.0
	for i := range u {
		sum += 1 / math.Pow(float64(i+1), webdbZipf)
		cdf[i] = sum
	}
	cards := make([]userQuery, webdbDeck)
	for i := range cards {
		cards[i] = u[min(sort.SearchFloat64s(cdf, fixed.Float64()*sum), len(u)-1)]
	}
	return &zipfGen{queries: newDeck(rand.New(rand.NewSource(seed)), cards)}
}

func (g *zipfGen) next() *request { return newSelect(g.queries.next(), false) }

// joinModels are the models rare enough that a model ⋈ model+year
// self-join stays at a few hundred pairs at most.
func joinModels() []string {
	var out []string
	for _, m := range datagen.ExpandedModels {
		if m.Popularity <= 0.5 {
			out = append(out, m.Model)
		}
	}
	return out
}

// selfJoin is a selective self-join: a rare model on the left, the same
// model in one year on the right, joined on model.
func selfJoin(model string, year int64) *request {
	return newJoin(userQuery{strPred("model", model)}, userQuery{strPred("model", model), intPred("year", year)}, defaultK)
}

// joinGen deals selective self-joins from two decks, so every model and
// every year is joined equally often.
type joinGen struct {
	models *deck[string]
	years  *deck[int64]
}

func newJoinGen(seed int64) *joinGen {
	rng := rand.New(rand.NewSource(seed))
	ys := make([]int64, years)
	for i := range ys {
		ys[i] = int64(firstYear + i)
	}
	return &joinGen{models: newDeck(rng, joinModels()), years: newDeck(rng, ys)}
}

func (g *joinGen) next() *request { return selfJoin(g.models.next(), g.years.next()) }

// streamsPerJoin sets join-stream's mix: this many streamed selects for
// each join.
const streamsPerJoin = 9

// mixGen is join-stream: streamed top-N point selects plus a minority of
// selective joins.
type mixGen struct {
	kinds  *deck[reqKind]
	points *deck[userQuery]
	topN   *deck[int]
	joins  *joinGen
}

func newMixGen(seed int64) generator {
	rng := rand.New(rand.NewSource(seed))
	kinds := []reqKind{kindJoin}
	for i := 0; i < streamsPerJoin; i++ {
		kinds = append(kinds, kindStream)
	}
	var topN []int
	for n := 5; n <= 25; n++ {
		topN = append(topN, n)
	}
	return &mixGen{
		kinds:  newDeck(rng, kinds),
		points: newDeck(rng, pointCards()),
		topN:   newDeck(rng, topN),
		joins:  newJoinGen(rng.Int63()),
	}
}

func (g *mixGen) next() *request {
	if g.kinds.next() == kindJoin {
		return g.joins.next()
	}
	return newStream(g.points.next(), g.topN.next())
}
