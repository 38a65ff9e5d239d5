package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"qpiad/internal/breaker"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// QuerySelect runs the full QPIAD selection algorithm (Section 4.2) against
// the named source:
//
//  1. issue Q, return the base result set as certain answers;
//  2. generate rewritten queries from the base set's determining-set value
//     combinations, order them by F-measure, keep the top-K, reorder those
//     by precision, issue them, post-filter, and return the relevant
//     possible answers ranked by their retrieving query's precision.
//
// Tuples with more than one null over the constrained attributes are
// reported in ResultSet.Unranked, after the ranked answers.
func (m *Mediator) QuerySelect(srcName string, q relation.Query) (*ResultSet, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QuerySelectCtx
	return m.QuerySelectCtx(context.Background(), srcName, q)
}

// QuerySelectCtx is QuerySelect under a caller-supplied context: cancelling
// ctx aborts in-flight source attempts and retry backoffs promptly.
func (m *Mediator) QuerySelectCtx(ctx context.Context, srcName string, q relation.Query) (*ResultSet, error) {
	return m.QuerySelectWithCtx(ctx, m.cfg, srcName, q)
}

// QuerySelectWith is QuerySelect under an explicit per-call configuration.
// It never reads or mutates the mediator's shared config, so concurrent
// callers with different α/K/retry settings cannot bleed into each other.
//
// Results are served from the mediator answer cache when possible:
// identical (source, query, α/K/ordering) calls hit the cached ResultSet,
// and concurrent identical misses are collapsed to a single pipeline run.
// Every caller receives its own shallow clone, so downstream sorting,
// trimming and projection cannot corrupt the cached copy. Degraded results
// (a rewrite failed or was budget-skipped) are returned but evicted
// immediately — a later retry gets a chance at the complete answer set.
// cfg.NoCache bypasses the cache for this call only.
func (m *Mediator) QuerySelectWith(cfg Config, srcName string, q relation.Query) (*ResultSet, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QuerySelectWithCtx
	return m.QuerySelectWithCtx(context.Background(), cfg, srcName, q)
}

// QuerySelectWithCtx is QuerySelectWith under a caller-supplied context.
//
// Cache caveat: when concurrent identical misses are collapsed, the whole
// pipeline runs under the *leader's* context. A follower that cancels its
// own ctx still receives the leader's result; if the leader cancels, every
// collapsed caller sees the leader's cancellation error (and the degraded
// entry is evicted, so a retry starts fresh).
func (m *Mediator) QuerySelectWithCtx(ctx context.Context, cfg Config, srcName string, q relation.Query) (*ResultSet, error) {
	if m.cache == nil || cfg.NoCache {
		return m.querySelectUncached(ctx, cfg, srcName, q)
	}
	key := answerKey(srcName, q, cfg)
	v, err := m.cache.Do(key, func() (any, error) {
		return m.querySelectUncached(ctx, cfg, srcName, q)
	})
	if err != nil {
		if rs, ok := m.staleFallback(key, cfg, err); ok {
			return rs, nil
		}
		return nil, err
	}
	rs := v.(*ResultSet)
	if rs.Degraded {
		m.cache.Delete(key)
	}
	return rs.clone(), nil
}

// staleFallback serves the last cached answer for key when the pipeline
// failed because the source's circuit breaker rejected the base query
// (errors.Is(err, breaker.ErrOpen)) and cfg.StaleTTL arms the fallback.
// The returned clone shares the cached entry's answer sections untouched —
// byte-identical to what a fresh hit would have served — and is flagged
// Stale with its age. The cached master is never mutated and the stale
// serve is never re-cached.
func (m *Mediator) staleFallback(key string, cfg Config, err error) (*ResultSet, bool) {
	if cfg.StaleTTL <= 0 || !errors.Is(err, breaker.ErrOpen) {
		return nil, false
	}
	v, age, ok := m.cache.GetStale(key, cfg.StaleTTL)
	if !ok {
		return nil, false
	}
	rs := v.(*ResultSet).clone()
	rs.Stale = true
	rs.StaleAge = age
	m.staleServed.Add(1)
	return rs, true
}

// answerKey is the cache key for one selection call. The fingerprint covers
// exactly the config fields that change a (non-degraded) result: α, K and
// the ordering policy. Parallel only affects wall-clock time, and Retry can
// only affect degraded results, which are never kept in the cache.
func answerKey(srcName string, q relation.Query, cfg Config) string {
	return srcName + "\x1e" + q.Key() + "\x1e" +
		strconv.FormatFloat(cfg.Alpha, 'g', -1, 64) + "\x1f" +
		strconv.Itoa(cfg.K) + "\x1f" +
		strconv.Itoa(int(cfg.Ordering))
}

// clone shallow-copies the result set so callers can sort, trim and project
// their copy without mutating the cached master. Answers and tuples are
// shared: the pipeline never mutates them after assembly.
//
// Aliasing audit: sharing tuples here is safe because no tuple in a
// ResultSet ever aliases a relation's backing store. Every tuple enters the
// pipeline through Source.QueryCtx, which clones at the wire boundary (its
// scan is piped through Cloned before collection), so the cache holds — and
// hands out — tuples owned by the mediator alone. Relation.Select's
// aliasing contract stops at the source wall.
func (rs *ResultSet) clone() *ResultSet {
	cp := *rs
	cp.Certain = append([]Answer(nil), rs.Certain...)
	cp.Possible = append([]Answer(nil), rs.Possible...)
	cp.Unranked = append([]Answer(nil), rs.Unranked...)
	cp.Issued = append([]RewrittenQuery(nil), rs.Issued...)
	return &cp
}

// querySelectUncached runs the full selection pipeline against the source.
func (m *Mediator) querySelectUncached(ctx context.Context, cfg Config, srcName string, q relation.Query) (*ResultSet, error) {
	src, k, err := m.lookupKnown(srcName)
	if err != nil {
		return nil, err
	}
	// Step 1: certain answers. The base query is retried like any other;
	// without it there is nothing to rewrite from, so failure is fatal.
	bres := fetchOne(ctx, src, q, cfg.Retry)
	if bres.err != nil {
		return nil, fmt.Errorf("core: base query: %w", bres.err)
	}
	// The top-N bound is a streaming feature: a batch result is complete.
	cfg.TopN = 0
	return m.runSelect(ctx, cfg, src, k, q, bres.rows, nil).Result, nil
}

// runSelect is the selection pipeline after the base query, shared by the
// batch and streaming executors: certain answers from base, rewrite
// generation and F-measure top-K (Step 2a–c), one fetch run in precision
// order, and the fold with post-filter and dedup (Step 2d–e). A non-nil
// emit receives every answer as it is folded, in final rank order, and one
// StreamRewrite event per chosen rewrite; the batch path passes nil and
// builds no events.
//
// cfg.TopN > 0 arms the confidence-bound early stop (see stream.go): once
// TopN possible answers are folded, the remaining rewrites are skipped or
// cancelled and accounted in the summary instead of folded.
func (m *Mediator) runSelect(ctx context.Context, cfg Config, src *source.Source, k *Knowledge, q relation.Query, base []relation.Tuple, emit func(StreamEvent)) *StreamSummary {
	emitAnswers := func(answers []Answer, unranked bool) {
		for i := range answers {
			a := answers[i]
			emit(StreamEvent{Kind: StreamEventAnswer, Answer: &a, Unranked: unranked})
		}
	}
	rs := &ResultSet{Query: q, Source: src.Name()}
	for _, t := range base {
		rs.Certain = append(rs.Certain, Answer{
			Tuple:      t,
			Certain:    true,
			Confidence: 1,
			FromQuery:  q,
		})
	}
	// Certain answers go out before any rewriting (NBC inference, scoring)
	// happens: time-to-first-answer is one source round-trip.
	if emit != nil {
		emitAnswers(rs.Certain, false)
	}

	// Step 2(a): generate; 2(b)+(c): order and select.
	cands := m.generateRewrites(k, q, base, src.Schema())
	rs.Generated = len(cands)
	chosen := scoreAndSelectWith(cfg, cands)

	// Step 2(d)+(e): retrieve the extended result set and post-filter.
	seen := make(map[string]bool, len(base))
	for _, t := range base {
		seen[t.Key()] = true
	}
	constrained := q.ConstrainedAttrs()
	fetch := startFetch(ctx, src, issueQueries(src, chosen), cfg.Parallel, cfg.Retry,
		cfg.Planner.Sched(), rewritePriorities(chosen))
	sum := &StreamSummary{Result: rs}
	for i := range chosen {
		res := fetch.result(i)
		if sum.EarlyStopped {
			// The bound tripped at an earlier rewrite: account this one as
			// saved (never issued) or cancelled (already in flight), and
			// fold nothing — folding completed stragglers would make the
			// answer set depend on cancellation timing.
			rq := chosen[i]
			rq.Attempts = res.attempts
			rq.Transferred = len(res.rows)
			rq.Err = ErrEarlyStop
			if res.attempts == 0 {
				sum.SkippedRewrites++
				sum.EstSavedTuples += rq.EstSel
			} else {
				sum.CancelledRewrites++
			}
			rs.Issued = append(rs.Issued, rq)
		} else {
			possible, unranked := foldRewriteResult(rs, src.Schema(), constrained, seen, chosen[i], res)
			if emit != nil {
				emitAnswers(possible, false)
				emitAnswers(unranked, true)
			}
			// The admissible bound: rewrites are processed in descending
			// estimated precision, so once TopN possible answers are out, no
			// later rewrite can place an answer above them. The stop
			// decision depends only on fold order, never on completion
			// timing, so the emitted answer set is deterministic.
			if cfg.TopN > 0 && len(rs.Possible) >= cfg.TopN && i < len(chosen)-1 {
				sum.EarlyStopped = true
				fetch.stopIssuing()
			}
		}
		if emit != nil {
			done := rs.Issued[len(rs.Issued)-1]
			emit(StreamEvent{Kind: StreamEventRewrite, Rewrite: &done})
		}
	}
	fetch.wait()
	return sum
}

// rewritePriorities maps chosen rewrites to their cross-query scheduling
// priorities: marginal F-measure per estimated source-query cost. Ignored
// (all fetches admitted immediately) when no scheduler is attached.
func rewritePriorities(chosen []RewrittenQuery) []float64 {
	pris := make([]float64, len(chosen))
	for i, rq := range chosen {
		pris[i] = planner.Priority(rq.F, rq.EstSel)
	}
	return pris
}

// issueQueries materializes the wire form of the chosen rewrites. Step 2(e)
// is conditional: when the source refuses null bindings (the web-form norm),
// rewrites are issued as-is and the mediator filters client-side; when null
// bindings ARE allowed, the rewrite binds TargetAttr IS NULL so only
// candidate incomplete tuples are transferred — this is what lets QPIAD beat
// AllRanked on transfer cost even on sources where AllRanked is feasible
// (Figure 8).
func issueQueries(src *source.Source, chosen []RewrittenQuery) []relation.Query {
	bindNulls := src.Capabilities().AllowNullBinding
	issueQs := make([]relation.Query, len(chosen))
	for i, rq := range chosen {
		issueQs[i] = rq.Query
		if bindNulls {
			issueQs[i] = issueQs[i].With(relation.IsNull(rq.TargetAttr))
		}
	}
	return issueQs
}

// foldRewriteResult folds one issued rewrite's fetch outcome into the result
// set — the shared assembly step of the batch and streaming executors. On
// success the transferred rows are post-filtered (keep only target-null
// tuples, Step 2e), deduplicated against everything already answered, and
// appended to Possible or Unranked; the answers appended are returned so the
// streaming executor can emit exactly them. A failed or budget-skipped
// rewrite degrades the result instead of failing it, and is still accounted
// in Issued so cost analysis sees it.
func foldRewriteResult(rs *ResultSet, schema *relation.Schema, constrained []string, seen map[string]bool, rq RewrittenQuery, res fetchResult) (possible, unranked []Answer) {
	rq.Attempts = res.attempts
	if err := res.err; err != nil {
		rq.Err = err
		rs.Degraded = true
		if errors.Is(err, breaker.ErrOpen) {
			// Rewrites rejected or skipped while the circuit was open never
			// touched the source: their selectivity estimate is tuples (and
			// queries) saved, mirroring the streaming early-stop accounting.
			rs.EstSavedTuples += rq.EstSel
		}
		rs.Issued = append(rs.Issued, rq)
		return nil, nil
	}
	rows := res.rows
	rq.Transferred = len(rows)
	tcol, ok := schema.Index(rq.TargetAttr)
	if !ok {
		rs.Issued = append(rs.Issued, rq)
		return nil, nil
	}
	for _, t := range rows {
		// Post-filtering: keep only tuples whose target attribute is
		// null — others are either already certain answers or certain
		// non-answers (Step 2e).
		if !t[tcol].IsNull() {
			continue
		}
		key := t.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		rq.Kept++
		ans := Answer{
			Tuple:       t,
			Confidence:  rq.Precision,
			FromQuery:   rq.Query,
			Explanation: rq.Explanation,
		}
		if t.NullCountOn(schema, constrained) > 1 {
			unranked = append(unranked, ans)
		} else {
			possible = append(possible, ans)
		}
	}
	rs.Possible = append(rs.Possible, possible...)
	rs.Unranked = append(rs.Unranked, unranked...)
	rs.Issued = append(rs.Issued, rq)
	return possible, unranked
}

// AllAnswers returns certain answers followed by ranked possible answers
// and then the unranked tail — the order a user sees.
func (rs *ResultSet) AllAnswers() []Answer {
	out := make([]Answer, 0, len(rs.Certain)+len(rs.Possible)+len(rs.Unranked))
	out = append(out, rs.Certain...)
	out = append(out, rs.Possible...)
	out = append(out, rs.Unranked...)
	return out
}

// Project trims every answer in the result set to the named attributes
// (Section 4's projection footnote: QPIAD projects the full attribute set
// internally and returns the user's subset at the end). The answers'
// metadata (confidence, explanation, retrieving query) is preserved; the
// projected schema is returned for display.
func (rs *ResultSet) Project(s *relation.Schema, attrs []string) (*ResultSet, *relation.Schema, error) {
	out := &ResultSet{
		Query:     rs.Query,
		Source:    rs.Source,
		Issued:    rs.Issued,
		Generated: rs.Generated,
		Degraded:  rs.Degraded,
	}
	var ps *relation.Schema
	project := func(answers []Answer) ([]Answer, error) {
		tuples := make([]relation.Tuple, len(answers))
		for i, a := range answers {
			tuples[i] = a.Tuple
		}
		projected, schema, err := relation.ProjectTuples(s, tuples, attrs)
		if err != nil {
			return nil, err
		}
		ps = schema
		res := make([]Answer, len(answers))
		for i, a := range answers {
			a.Tuple = projected[i]
			res[i] = a
		}
		return res, nil
	}
	var err error
	if out.Certain, err = project(rs.Certain); err != nil {
		return nil, nil, err
	}
	if out.Possible, err = project(rs.Possible); err != nil {
		return nil, nil, err
	}
	if out.Unranked, err = project(rs.Unranked); err != nil {
		return nil, nil, err
	}
	return out, ps, nil
}
