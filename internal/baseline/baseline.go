// Package baseline implements the two comparison strategies of the paper's
// evaluation (Sections 1 and 6):
//
//   - AllReturned: return, besides the certain answers, every tuple with a
//     null on a constrained attribute — unranked. High recall, poor
//     precision.
//   - AllRanked: retrieve the same set, then rank the possible answers by
//     the NBC-predicted probability that their missing value satisfies the
//     query. Better precision than AllReturned, but it must transfer every
//     null-bearing tuple first.
//
// Both baselines require the source to support null-value binding, which
// real web sources refuse — the paper runs them anyway to show QPIAD wins
// even when null binding is available.
package baseline

import (
	"context"
	"fmt"
	"sort"

	"qpiad/internal/core"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// AllReturned retrieves the certain answers plus every tuple null on a
// constrained attribute, in source order, unranked (confidence 0 for
// possible answers). The source must allow null binding.
func AllReturned(ctx context.Context, src *source.Source, q relation.Query) (*core.ResultSet, error) {
	return run(ctx, src, q, nil)
}

// AllRanked retrieves the same answer set as AllReturned and ranks the
// possible answers by the predicted probability that their missing
// value(s) satisfy the query predicates, using the knowledge's predictors.
func AllRanked(ctx context.Context, src *source.Source, q relation.Query, k *core.Knowledge) (*core.ResultSet, error) {
	if k == nil {
		return nil, fmt.Errorf("baseline: AllRanked requires mined knowledge")
	}
	return run(ctx, src, q, k)
}

func run(ctx context.Context, src *source.Source, q relation.Query, k *core.Knowledge) (*core.ResultSet, error) {
	rs := &core.ResultSet{Query: q, Source: src.Name()}

	// Certain answers.
	base, err := src.QueryCtx(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("baseline: base query: %w", err)
	}
	seen := make(map[string]bool, len(base))
	for _, t := range base {
		seen[t.Key()] = true
		rs.Certain = append(rs.Certain, core.Answer{Tuple: t, Certain: true, Confidence: 1, FromQuery: q})
	}

	// For each constrained attribute, fetch the tuples null on it while
	// keeping the remaining predicates (the possible answers of
	// Definition 2). This needs null binding.
	constrained := q.ConstrainedAttrs()
	for _, attr := range constrained {
		nq := q.WithoutAttr(attr).With(relation.IsNull(attr))
		rows, err := src.QueryCtx(ctx, nq)
		if err != nil {
			return nil, fmt.Errorf("baseline: null-binding query: %w", err)
		}
		for _, t := range rows {
			key := t.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			ans := core.Answer{Tuple: t, FromQuery: nq}
			if k != nil {
				ans.Confidence = relevance(src.Schema(), t, q, k)
				ans.Explanation = "ranked by NBC prediction over missing values"
			}
			if t.NullCountOn(src.Schema(), constrained) > 1 {
				rs.Unranked = append(rs.Unranked, ans)
			} else {
				rs.Possible = append(rs.Possible, ans)
			}
		}
	}
	if k != nil {
		sort.SliceStable(rs.Possible, func(i, j int) bool {
			return rs.Possible[i].Confidence > rs.Possible[j].Confidence
		})
	}
	return rs, nil
}

// relevance estimates the probability that t's missing constrained values
// satisfy q's predicates, multiplying across the constrained attributes t
// is null on.
func relevance(s *relation.Schema, t relation.Tuple, q relation.Query, k *core.Knowledge) float64 {
	conf := 1.0
	for _, p := range q.Preds {
		col, ok := s.Index(p.Attr)
		if !ok || !t[col].IsNull() {
			continue
		}
		pred := k.Predictors[p.Attr]
		if pred == nil {
			return 0
		}
		d := pred.Predict(s, t)
		conf *= core.PredicateMass(d, p)
	}
	return conf
}
