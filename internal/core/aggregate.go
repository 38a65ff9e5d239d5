package core

import (
	"context"
	"fmt"

	"qpiad/internal/relation"
)

// InclusionRule selects how a rewritten query's aggregate contribution is
// combined with the certain aggregate (Section 4.4).
type InclusionRule uint8

const (
	// RuleArgmax includes a rewritten query's entire aggregate iff the most
	// likely predicted value of the constrained attribute equals (satisfies)
	// the original predicate — the paper's choice.
	RuleArgmax InclusionRule = iota
	// RuleFractional includes precision × aggregate for every rewritten
	// query — the footnote-4 alternative the paper reports as less
	// accurate; kept as an ablation.
	RuleFractional
)

// String names the rule.
func (r InclusionRule) String() string {
	switch r {
	case RuleArgmax:
		return "argmax"
	case RuleFractional:
		return "fractional"
	default:
		return fmt.Sprintf("rule(%d)", uint8(r))
	}
}

// AggOptions tunes aggregate processing.
type AggOptions struct {
	// IncludePossible adds contributions from rewritten queries (incomplete
	// tuples). False reproduces the "no prediction" baseline that ignores
	// incomplete tuples.
	IncludePossible bool
	// PredictMissing substitutes predicted values when the aggregated
	// attribute itself is null in a contributing tuple (both in the certain
	// and the possible sets). Without it such tuples are skipped, as in
	// plain SQL.
	PredictMissing bool
	// Rule selects the combination rule for possible contributions.
	Rule InclusionRule
}

// AggAnswer is the outcome of an aggregate query over an incomplete source.
type AggAnswer struct {
	// Certain is the aggregate over the certain answers only.
	Certain float64
	// Possible is the contribution from incomplete tuples retrieved by
	// rewritten queries.
	Possible float64
	// Total is the combined aggregate reported to the user.
	Total float64
	// CertainRows / PossibleRows count the contributing tuples.
	CertainRows  int
	PossibleRows int
	// Included are the rewritten queries whose results were combined.
	Included []RewrittenQuery
	// Failed are rewritten queries that were selected for inclusion but
	// could not be fetched (after retries) or were skipped after budget
	// exhaustion or an open-circuit rejection; each carries its Err and
	// Attempts.
	Failed []RewrittenQuery
	// Degraded reports that Failed is non-empty: the possible contribution
	// underestimates what a fully reliable source would have yielded.
	Degraded bool
}

// QueryAggregate processes an aggregate query (q.Agg != nil) per Section
// 4.4: compute the aggregate over the certain answers, then — when
// IncludePossible — generate rewritten queries and fold in the aggregate of
// each rewrite whose predicted most-likely value satisfies the original
// predicate (RuleArgmax) or a precision-weighted fraction (RuleFractional).
func (m *Mediator) QueryAggregate(srcName string, q relation.Query, opts AggOptions) (*AggAnswer, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QueryAggregateCtx
	return m.QueryAggregateCtx(context.Background(), srcName, q, opts)
}

// QueryAggregateCtx is QueryAggregate under a caller-supplied context:
// cancelling ctx aborts in-flight source attempts and retry backoffs.
func (m *Mediator) QueryAggregateCtx(ctx context.Context, srcName string, q relation.Query, opts AggOptions) (*AggAnswer, error) {
	return m.QueryAggregateWithCtx(ctx, m.cfg, srcName, q, opts)
}

// QueryAggregateWith is QueryAggregate under an explicit per-call
// configuration; it never touches the mediator's shared config, so
// concurrent callers with different α/K settings cannot interfere.
func (m *Mediator) QueryAggregateWith(cfg Config, srcName string, q relation.Query, opts AggOptions) (*AggAnswer, error) {
	//lint:allow ctxflow audited root: context-free convenience wrapper over QueryAggregateWithCtx
	return m.QueryAggregateWithCtx(context.Background(), cfg, srcName, q, opts)
}

// QueryAggregateWithCtx is QueryAggregateWith under a caller-supplied
// context.
func (m *Mediator) QueryAggregateWithCtx(ctx context.Context, cfg Config, srcName string, q relation.Query, opts AggOptions) (*AggAnswer, error) {
	if q.Agg == nil {
		return nil, fmt.Errorf("core: QueryAggregate needs an aggregate query")
	}
	src, k, err := m.lookupKnown(srcName)
	if err != nil {
		return nil, err
	}
	agg := *q.Agg
	if agg.Attr != "" && !src.Schema().Has(agg.Attr) {
		return nil, fmt.Errorf("core: aggregate attribute %q not in source %q", agg.Attr, srcName)
	}

	bres := fetchOne(ctx, src, q, cfg.Retry)
	if bres.err != nil {
		return nil, fmt.Errorf("core: base query: %w", bres.err)
	}
	base := bres.rows
	out := &AggAnswer{}
	certain, rows, err := m.aggregateOver(src.Schema(), k, agg, base, opts.PredictMissing)
	if err != nil {
		return nil, err
	}
	out.Certain = certain
	out.CertainRows = rows

	if opts.IncludePossible {
		cands := m.generateRewrites(k, q, base, src.Schema())
		var included []RewrittenQuery
		var weights []float64
		var queries []relation.Query
		for _, rq := range scoreAndSelectWith(cfg, cands) {
			if include, weight := m.shouldInclude(rq, opts.Rule); include {
				included = append(included, rq)
				weights = append(weights, weight)
				queries = append(queries, rq.Query)
			}
		}
		results := startFetch(ctx, src, queries, cfg.Parallel, cfg.Retry, nil, nil).wait()
		seen := make(map[string]bool, len(base))
		for _, t := range base {
			seen[t.Key()] = true
		}
		for i, rq := range included {
			rq.Attempts = results[i].attempts
			if err := results[i].err; err != nil {
				rq.Err = err
				out.Failed = append(out.Failed, rq)
				out.Degraded = true
				continue
			}
			tcol, ok := src.Schema().Index(rq.TargetAttr)
			if !ok {
				continue
			}
			var contrib []relation.Tuple
			for _, t := range results[i].rows {
				if !t[tcol].IsNull() {
					continue
				}
				key := t.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				contrib = append(contrib, t)
			}
			if len(contrib) == 0 {
				continue
			}
			val, n, err := m.aggregateOver(src.Schema(), k, agg, contrib, opts.PredictMissing)
			if err != nil {
				continue
			}
			out.Possible += weights[i] * val
			out.PossibleRows += n
			out.Included = append(out.Included, rq)
		}
	}
	out.Total = out.Certain + out.Possible
	return out, nil
}

// shouldInclude applies the inclusion rule to one rewritten query.
func (m *Mediator) shouldInclude(rq RewrittenQuery, rule InclusionRule) (bool, float64) {
	switch rule {
	case RuleFractional:
		return rq.Precision > 0, rq.Precision
	default: // RuleArgmax
		return rq.ModeSatisfiesPred, 1
	}
}

// aggregateOver evaluates agg over tuples, optionally predicting values
// null on the aggregated attribute (argmax completion) instead of skipping
// them. Completion is a Map stage in the fold pipeline, so no completed
// copy of the tuple set is ever materialized — each incomplete tuple is
// cloned, patched, folded and dropped.
func (m *Mediator) aggregateOver(s *relation.Schema, k *Knowledge, agg relation.Aggregate, tuples []relation.Tuple, predictMissing bool) (float64, int, error) {
	seq := relation.FromTuples(tuples)
	if predictMissing && agg.Attr != "" {
		col, ok := s.Index(agg.Attr)
		if !ok {
			return 0, 0, fmt.Errorf("core: aggregate attribute %q missing", agg.Attr)
		}
		if p := k.Predictors[agg.Attr]; p != nil {
			seq = seq.Map(func(t relation.Tuple) relation.Tuple {
				if !t[col].IsNull() {
					return t
				}
				guess, _, ok := p.Predict(s, t).Top()
				if !ok {
					return t
				}
				ct := t.Clone()
				ct[col] = guess
				return ct
			})
		}
	}
	res, err := agg.Fold(s, seq)
	if err != nil {
		return 0, 0, err
	}
	return res.Value, res.Rows, nil
}
