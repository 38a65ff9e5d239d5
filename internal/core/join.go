package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"qpiad/internal/breaker"
	"qpiad/internal/nbc"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// JoinSpec describes a two-way join query over the mediator's global schema
// (Section 4.5): one selection per relation plus an equi-join condition.
type JoinSpec struct {
	// LeftSource / RightSource are registered source names.
	LeftSource, RightSource string
	// LeftQuery / RightQuery are the per-relation selections derived from
	// the user's join query (Q1 and Q2 in the paper).
	LeftQuery, RightQuery relation.Query
	// LeftJoinAttr / RightJoinAttr are the equi-join attributes.
	LeftJoinAttr, RightJoinAttr string
	// Alpha overrides the mediator α for pair ordering (joins typically
	// want more recall weight; the paper evaluates α ∈ {0, 0.5, 2}).
	Alpha float64
	// K is the number of query pairs to issue (10 in the paper's
	// experiments). K <= 0 means unlimited.
	K int
}

// queryUnit is one member of Q1∪Q1′ or Q2∪Q2′ with its ranking statistics.
type queryUnit struct {
	rq       RewrittenQuery // zero-valued Query for the complete query
	complete bool
	query    relation.Query
	prec     float64
	estSel   float64
	// jd is the join-attribute value distribution JD (empirical for the
	// complete query, predicted for rewrites).
	jd nbc.Distribution
}

// QueryPair is a scored pair of queries, one per relation.
type QueryPair struct {
	Left, Right   relation.Query
	LeftComplete  bool
	RightComplete bool
	Precision     float64
	EstSel        float64
	Recall        float64
	F             float64
}

// JoinAnswer is one joined tuple returned to the user.
type JoinAnswer struct {
	Left, Right relation.Tuple
	// JoinValue is the value the pair joined on (predicted when a side was
	// null on its join attribute).
	JoinValue relation.Value
	// Certain reports that both sides were certain answers with non-null
	// join values.
	Certain bool
	// Confidence multiplies the component confidences and, when a missing
	// join value was predicted, the prediction probability.
	Confidence float64
}

// JoinResult is the outcome of a join query.
type JoinResult struct {
	Spec JoinSpec
	// Pairs are the issued query pairs in issue order.
	Pairs []QueryPair
	// Answers are the joined tuples, certain first, then by descending
	// confidence.
	Answers []JoinAnswer
	// Degraded reports that at least one component rewrite could not be
	// fetched (after retries), so some possible join pairs may be missing.
	Degraded bool
	// EstSavedTuples sums the estimated selectivities of component rewrites
	// the mediator never fetched — either because the planner proved the
	// pair empty from the other side, or because the source's circuit was
	// open (mirroring ResultSet.EstSavedTuples).
	EstSavedTuples float64
	// Explain records the plan: estimated vs actual cardinalities and the
	// planner's ordering decisions. Always populated.
	Explain *planner.Explain
}

// sideEstimate derives a planner-side cost estimate for one join side from
// mined statistics: the estimated full-database cardinality of the
// selection, and the sample's distinct-value count on the join attribute
// (the hash-join fanout denominator).
func sideEstimate(name string, k *Knowledge, q relation.Query, attr string) planner.Side {
	sd := planner.Side{Source: name}
	if k.Sel != nil {
		sd.Est = k.Sel.EstSelComplete(q)
	}
	if k.Sample != nil {
		if st, ok := k.Sample.IndexStats(attr); ok {
			sd.Distinct = st.Distinct
		}
	}
	return sd
}

// QueryJoinCtx processes a join query per Section 4.5: retrieve both base
// sets, generate rewrites on each side, score all query pairs by combined
// precision and join-aware estimated selectivity, issue the top-K pairs,
// and join their results — predicting missing join values with the NBC
// predictors. Cancelling ctx aborts in-flight source attempts and retry
// backoffs promptly.
func (m *Mediator) QueryJoinCtx(ctx context.Context, spec JoinSpec) (*JoinResult, error) {
	ls, lk, err := m.lookupKnown(spec.LeftSource)
	if err != nil {
		return nil, err
	}
	rsrc, rk, err := m.lookupKnown(spec.RightSource)
	if err != nil {
		return nil, err
	}
	if !ls.Schema().Has(spec.LeftJoinAttr) || !rsrc.Schema().Has(spec.RightJoinAttr) {
		return nil, fmt.Errorf("core: join attributes %q/%q not present", spec.LeftJoinAttr, spec.RightJoinAttr)
	}

	// Estimate both sides from mined statistics before touching the
	// sources. The estimates drive fetch ordering when the planner is on
	// and surface in the Explain either way.
	plannerOn := m.cfg.Planner.On()
	sched := m.cfg.Planner.Sched()
	adj := planner.Adjacency{
		Left:  sideEstimate(spec.LeftSource, lk, spec.LeftQuery, spec.LeftJoinAttr),
		Right: sideEstimate(spec.RightSource, rk, spec.RightQuery, spec.RightJoinAttr),
	}
	if plannerOn {
		m.plannerPlans.Add(1)
	}

	// Step 1: base sets (retried under the mediator's policy; the join
	// cannot proceed without them). With the planner on, the estimated
	// smaller side goes first so a failing cheap side aborts before the
	// expensive one is queried; answer sets are order-independent.
	var lbase, rbase []relation.Tuple
	fetchBase := func(src queryable, q relation.Query, side string, out *[]relation.Tuple) error {
		bres := fetchOne(ctx, src, q, m.cfg.Retry)
		if bres.err != nil {
			return fmt.Errorf("core: %s base query: %w", side, bres.err)
		}
		*out = bres.rows
		return nil
	}
	if plannerOn && adj.Right.Est < adj.Left.Est {
		if err := fetchBase(rsrc, spec.RightQuery, "right", &rbase); err != nil {
			return nil, err
		}
		if err := fetchBase(ls, spec.LeftQuery, "left", &lbase); err != nil {
			return nil, err
		}
	} else {
		if err := fetchBase(ls, spec.LeftQuery, "left", &lbase); err != nil {
			return nil, err
		}
		if err := fetchBase(rsrc, spec.RightQuery, "right", &rbase); err != nil {
			return nil, err
		}
	}

	// Step 2: rewrites per side.
	lunits := buildUnits(lk, spec.LeftQuery, lbase, ls.Schema(), spec.LeftJoinAttr)
	runits := buildUnits(rk, spec.RightQuery, rbase, rsrc.Schema(), spec.RightJoinAttr)

	// Step 3+4: score all pairs, keep top-K.
	pairs := scorePairs(lunits, runits, spec.Alpha, spec.K)

	res := &JoinResult{Spec: spec}

	// Step 5: issue component queries once each. A component's resolved
	// join entries and hash index are memoized alongside its fetch: a unit
	// appearing in many scored pairs is resolved and indexed once, not once
	// per pair.
	type sideResult struct {
		answers []Answer
		ents    []joinEntry // resolved join values, one per answer
		index   joinIndex   // built the first time the side is the build side
	}
	type joinSide struct {
		src     *source.Source
		base    []relation.Tuple
		col     int
		pred    *nbc.Predictor
		results map[string]*sideResult
		open    bool // an earlier component hit the source's open circuit
		act     int
	}
	left := &joinSide{src: ls, base: lbase, col: ls.Schema().MustIndex(spec.LeftJoinAttr),
		pred: lk.Predictors[spec.LeftJoinAttr], results: map[string]*sideResult{}}
	right := &joinSide{src: rsrc, base: rbase, col: rsrc.Schema().MustIndex(spec.RightJoinAttr),
		pred: rk.Predictors[spec.RightJoinAttr], results: map[string]*sideResult{}}
	// fetch issues one component at a time, not through startFetch's pool:
	// the planner decides whether a pair's second component is worth
	// fetching from the first component's result.
	fetch := func(sd *joinSide, u queryUnit) *sideResult {
		key := u.query.Key()
		if sr, ok := sd.results[key]; ok {
			return sr
		}
		sr := &sideResult{}
		switch {
		case u.complete:
			for _, t := range sd.base {
				sr.answers = append(sr.answers, Answer{Tuple: t, Certain: true, Confidence: 1, FromQuery: u.query})
			}
		case sd.open:
			// An earlier component on this side was rejected by the source's
			// open circuit; skip the rest of the side's rewrites unissued and
			// account their selectivity as saved tuples — the same plan-level
			// short-circuit the select path applies (errSkippedOpen).
			res.Degraded = true
			res.EstSavedTuples += u.rq.EstSel
		default:
			fres := fetchOneSched(ctx, sd.src, u.query, m.cfg.Retry, sched, planner.Priority(u.prec, u.estSel))
			if fres.err != nil {
				// A component that stays unfetchable after retries degrades
				// the join rather than failing it.
				res.Degraded = true
				if errors.Is(fres.err, breaker.ErrOpen) {
					res.EstSavedTuples += u.rq.EstSel
					sd.open = true
				}
			} else if tcol, ok := sd.src.Schema().Index(u.rq.TargetAttr); ok {
				for _, t := range fres.rows {
					if !t[tcol].IsNull() {
						continue
					}
					sr.answers = append(sr.answers, Answer{
						Tuple:       t,
						Confidence:  u.rq.Precision,
						FromQuery:   u.query,
						Explanation: u.rq.Explanation,
					})
				}
			}
		}
		sd.results[key] = sr
		sd.act += len(sr.answers)
		return sr
	}
	// canSkip reports that not fetching u would actually save a source
	// query: complete units are served from the already-fetched base, and
	// cached units were fetched for an earlier pair.
	canSkip := func(sd *joinSide, u queryUnit) bool {
		if u.complete {
			return false
		}
		_, cached := sd.results[u.query.Key()]
		return !cached
	}
	skip := func(u queryUnit) {
		m.plannerSkipped.Add(1)
		res.EstSavedTuples += u.rq.EstSel
	}
	resolve := func(sd *joinSide, sr *sideResult) {
		if sr.ents == nil {
			sr.ents = resolveJoinValues(sd.src.Schema(), sr.answers, sd.col, sd.pred)
		}
	}

	seenJoin := make(map[string]bool)
	emit := func(lres *sideResult, l int, rres *sideResult, r int) {
		la, ra := lres.answers[l], rres.answers[r]
		le, re := lres.ents[l], rres.ents[r]
		key := la.Tuple.Key() + "\x1f" + ra.Tuple.Key()
		if seenJoin[key] {
			return
		}
		seenJoin[key] = true
		res.Answers = append(res.Answers, JoinAnswer{
			Left:      la.Tuple,
			Right:     ra.Tuple,
			JoinValue: le.val,
			// A predicted join value means the stored one was null, so
			// !predded is exactly the old non-null check.
			Certain:    la.Certain && ra.Certain && !le.predded && !re.predded,
			Confidence: (la.Confidence * le.conf) * (ra.Confidence * re.conf),
		})
	}

	for _, sp := range pairs {
		lu, ru := sp.left, sp.right
		res.Pairs = append(res.Pairs, sp.pair)
		var lres, rres *sideResult
		if plannerOn {
			// Fetch the estimated-smaller component first; if it comes back
			// empty the pair cannot match, so the other component's fetch is
			// skipped entirely when that would save a source query.
			if ru.estSel < lu.estSel {
				rres = fetch(right, ru)
				if len(rres.answers) == 0 && canSkip(left, lu) {
					skip(lu)
					continue
				}
				lres = fetch(left, lu)
			} else {
				lres = fetch(left, lu)
				if len(lres.answers) == 0 && canSkip(right, ru) {
					skip(ru)
					continue
				}
				rres = fetch(right, ru)
			}
		} else {
			lres = fetch(left, lu)
			rres = fetch(right, ru)
		}
		if len(lres.answers) == 0 || len(rres.answers) == 0 {
			continue
		}

		// Step 6: hash join with missing-value prediction. The caller-order
		// path builds on the right as always; the planner builds on the
		// side whose materialized answer set is smaller. Either direction
		// produces the same (left, right) match set, and emit computes
		// confidence with fixed left×right orientation, so the answers are
		// identical either way.
		resolve(left, lres)
		resolve(right, rres)
		buildLeft := plannerOn && planner.BuildLeft(len(lres.answers), len(rres.answers))
		build, probe := rres, lres
		if buildLeft {
			build, probe = lres, rres
		}
		if build.index == nil {
			build.index = newJoinIndex(build.ents)
		}
		build.index.probe(probe.ents, func(p, b int) {
			if buildLeft {
				emit(lres, b, rres, p)
			} else {
				emit(lres, p, rres, b)
			}
		})
	}
	// Certain first, then descending confidence; ties broken by tuple keys
	// so the ranking is identical whichever order the planner joined in.
	sort.SliceStable(res.Answers, func(i, j int) bool {
		ai, aj := res.Answers[i], res.Answers[j]
		if ai.Certain != aj.Certain {
			return ai.Certain
		}
		if ai.Confidence != aj.Confidence {
			return ai.Confidence > aj.Confidence
		}
		return ai.Left.Key()+"\x1f"+ai.Right.Key() < aj.Left.Key()+"\x1f"+aj.Right.Key()
	})
	res.Explain = &planner.Explain{
		PlannerOn: plannerOn,
		Order:     []int{0},
		Steps: []planner.Step{{
			LeftSource:  spec.LeftSource,
			RightSource: spec.RightSource,
			EstLeft:     adj.Left.Est,
			EstRight:    adj.Right.Est,
			EstOut:      adj.EstOut(),
			ActLeft:     left.act,
			ActRight:    right.act,
			ActOut:      len(res.Answers),
			BuildLeft:   plannerOn && planner.BuildLeft(left.act, right.act),
		}},
	}
	return res, nil
}

// joinEntry is one answer's side of the mediator's hash join: the resolved
// join value (stored, or NBC-predicted when the stored value was null), the
// prediction's probability as a confidence factor (1 for a stored value),
// and whether a prediction happened — a predicted entry can never be part
// of a certain join. ok=false means the value is null and unpredictable, so
// the answer cannot join at all.
type joinEntry struct {
	val     relation.Value
	conf    float64
	predded bool
	ok      bool
}

// resolveJoinValues resolves each answer's join value at column col,
// predicting with pred when the stored value is null.
func resolveJoinValues(s *relation.Schema, answers []Answer, col int, pred *nbc.Predictor) []joinEntry {
	ents := make([]joinEntry, len(answers))
	for i, a := range answers {
		v := a.Tuple[col]
		if !v.IsNull() {
			ents[i] = joinEntry{val: v, conf: 1, ok: true}
			continue
		}
		if pred == nil {
			continue
		}
		if guess, p, ok := pred.Predict(s, a.Tuple).Top(); ok {
			ents[i] = joinEntry{val: guess, conf: p, predded: true, ok: true}
		}
	}
	return ents
}

// joinIndex is the build side of the mediator's only hash join, shared by
// the two-way and chain executors: build positions grouped by join value,
// in build order.
type joinIndex map[string][]int

// newJoinIndex hashes the joinable build entries by join value.
func newJoinIndex(build []joinEntry) joinIndex {
	idx := make(joinIndex, len(build))
	for b, e := range build {
		if e.ok {
			key := e.val.Key()
			idx[key] = append(idx[key], b)
		}
	}
	return idx
}

// probe calls emit(p, b) for every probe entry p and build position b that
// share a join value: probe-major, build order within a value.
func (idx joinIndex) probe(probe []joinEntry, emit func(p, b int)) {
	for p, e := range probe {
		if !e.ok {
			continue
		}
		for _, b := range idx[e.val.Key()] {
			emit(p, b)
		}
	}
}

// buildUnits assembles Q∪Q′ for one side of the join: the complete query
// (precision 1, true selectivity, empirical join distribution) plus every
// rewritten query with its predicted join-attribute distribution (step 3a).
func buildUnits(k *Knowledge, q relation.Query, base []relation.Tuple, s *relation.Schema, joinAttr string) []queryUnit {
	units := []queryUnit{{
		complete: true,
		query:    q,
		prec:     1,
		estSel:   float64(len(base)),
		jd:       empiricalDistribution(s, base, joinAttr),
	}}
	pred := k.Predictors[joinAttr]
	for _, rq := range GenerateRewrites(k, q, base, s) {
		u := queryUnit{rq: rq, query: rq.Query, prec: rq.Precision, estSel: rq.EstSel}
		switch {
		case rq.TargetAttr == joinAttr:
			// The rewrite retrieves tuples missing the join attribute; its
			// join distribution is the predictor's posterior given the
			// rewrite evidence.
			if p := k.Predictors[joinAttr]; p != nil {
				u.jd = p.PredictEvidence(rq.Evidence)
			}
		case pred != nil:
			// Join attribute is bound or free in the rewrite: use evidence
			// from the rewrite's equality predicates.
			ev := make(map[string]relation.Value)
			for _, pr := range rq.Query.Preds {
				if pr.Op == relation.OpEq {
					ev[pr.Attr] = pr.Value
				}
			}
			u.jd = pred.PredictEvidence(ev)
		}
		units = append(units, u)
	}
	return units
}

// empiricalDistribution is the normalized join-value histogram of a base
// set (nulls excluded).
func empiricalDistribution(s *relation.Schema, tuples []relation.Tuple, attr string) nbc.Distribution {
	col, ok := s.Index(attr)
	if !ok {
		return nbc.NewDistribution(nil, nil)
	}
	counts := make(map[string]float64)
	var order []relation.Value
	for _, t := range tuples {
		v := t[col]
		if v.IsNull() {
			continue
		}
		if _, seen := counts[v.Key()]; !seen {
			order = append(order, v)
		}
		counts[v.Key()]++
	}
	weights := make([]float64, len(order))
	for i, v := range order {
		weights[i] = counts[v.Key()]
	}
	return nbc.NewDistribution(order, weights)
}

// scoredPair couples a QueryPair with its source units.
type scoredPair struct {
	pair  QueryPair
	left  queryUnit
	right queryUnit
}

// scorePairs implements steps 3(b), 3(c) and 4: per-value estimated
// selectivities, pair selectivity as the sum of matching-value products,
// pair precision as the product of component precisions, recall normalized
// over all pairs, and F-measure top-K selection.
func scorePairs(lunits, runits []queryUnit, alpha float64, k int) []scoredPair {
	var pairs []scoredPair
	for _, lu := range lunits {
		for _, ru := range runits {
			estSel := 0.0
			for i := 0; i < lu.jd.Len(); i++ {
				v := lu.jd.Value(i)
				pr := ru.jd.Prob(v)
				if pr == 0 {
					continue
				}
				// EstSel(qp, vj) = precision × selectivity × P(vj), per side.
				estSel += (lu.prec * lu.estSel * lu.jd.ProbAt(i)) * (ru.prec * ru.estSel * pr)
			}
			pairs = append(pairs, scoredPair{
				pair: QueryPair{
					Left:          lu.query,
					Right:         ru.query,
					LeftComplete:  lu.complete,
					RightComplete: ru.complete,
					Precision:     lu.prec * ru.prec,
					EstSel:        estSel,
				},
				left:  lu,
				right: ru,
			})
		}
	}
	total := 0.0
	for _, p := range pairs {
		total += p.pair.Precision * p.pair.EstSel
	}
	for i := range pairs {
		if total > 0 {
			pairs[i].pair.Recall = pairs[i].pair.Precision * pairs[i].pair.EstSel / total
		}
		pairs[i].pair.F = fMeasure(pairs[i].pair.Precision, pairs[i].pair.Recall, alpha)
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].pair.F != pairs[j].pair.F {
			return pairs[i].pair.F > pairs[j].pair.F
		}
		if pairs[i].pair.Precision != pairs[j].pair.Precision {
			return pairs[i].pair.Precision > pairs[j].pair.Precision
		}
		return pairs[i].pair.Left.Key()+pairs[i].pair.Right.Key() <
			pairs[j].pair.Left.Key()+pairs[j].pair.Right.Key()
	})
	if k > 0 && len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}
