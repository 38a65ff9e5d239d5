package core

import (
	"context"
	"math"
	"testing"

	"qpiad/internal/relation"
)

func countQuery() relation.Query {
	q := convtQuery()
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	return q
}

func TestAggregateCertainOnly(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(f.ed.Count(convtQuery()))
	if ans.Certain != want || ans.Total != want || ans.Possible != 0 {
		t.Errorf("certain-only aggregate: %+v, want certain=%v", ans, want)
	}
}

func TestAggregateWithPossibleApproachesTruth(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	truth := float64(f.gd.Count(convtQuery()))
	noPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", countQuery(), AggOptions{
		IncludePossible: true,
		PredictMissing:  true,
		Rule:            RuleArgmax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withPred.Possible <= 0 {
		t.Fatal("prediction should contribute possible tuples")
	}
	errNo := math.Abs(noPred.Total - truth)
	errWith := math.Abs(withPred.Total - truth)
	if errWith >= errNo {
		t.Errorf("prediction should improve accuracy: |%v-%v|=%v vs |%v-%v|=%v",
			withPred.Total, truth, errWith, noPred.Total, truth, errNo)
	}
	if len(withPred.Included) == 0 {
		t.Error("Included should list the combined rewrites")
	}
}

func TestAggregateArgmaxExcludesUnlikelyRewrites(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	// Query for Coupe: the only models with Coupe mass (Z4 at 0.05,
	// Civic at 0.15) have a different argmax, so no rewrite qualifies.
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Coupe")))
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{IncludePossible: true, Rule: RuleArgmax})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Possible != 0 {
		t.Errorf("argmax rule should exclude all Coupe rewrites, got %v from %d queries",
			ans.Possible, len(ans.Included))
	}
}

func TestAggregateFractionalRule(t *testing.T) {
	f := newFixture(t, Config{Alpha: 1, K: 0})
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Coupe")))
	q.Agg = &relation.Aggregate{Func: relation.AggCount}
	ans, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{IncludePossible: true, Rule: RuleFractional})
	if err != nil {
		t.Fatal(err)
	}
	// Fractional rule lets low-precision rewrites contribute partially.
	if ans.Possible <= 0 {
		t.Error("fractional rule should contribute for Coupe")
	}
}

func TestAggregateSumWithPrediction(t *testing.T) {
	f := newFixtureAttr(t, Config{Alpha: 1, K: 0}, "price")
	// Sum of prices for Civic with ~10% of prices missing.
	q := relation.NewQuery("cars", relation.Eq("model", relation.String("Civic")))
	q.Agg = &relation.Aggregate{Func: relation.AggSum, Attr: "price"}
	truthQ := q.Clone()
	truthRes, err := f.gd.Aggregate(truthQ)
	if err != nil {
		t.Fatal(err)
	}
	noPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPred, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", q, AggOptions{PredictMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	errNo := math.Abs(noPred.Total - truthRes.Value)
	errWith := math.Abs(withPred.Total - truthRes.Value)
	if errWith >= errNo {
		t.Errorf("price prediction should improve Sum accuracy: with=%v no=%v truth=%v",
			withPred.Total, noPred.Total, truthRes.Value)
	}
}

func TestAggregateErrors(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", convtQuery(), AggOptions{}); err == nil {
		t.Error("non-aggregate query should error")
	}
	if _, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "nope", countQuery(), AggOptions{}); err == nil {
		t.Error("unknown source should error")
	}
	bad := convtQuery()
	bad.Agg = &relation.Aggregate{Func: relation.AggSum, Attr: "nope"}
	if _, err := f.m.QueryAggregateWithCtx(context.Background(), f.m.Config(), "cars", bad, AggOptions{}); err == nil {
		t.Error("unknown aggregate attribute should error")
	}
}

func TestInclusionRuleString(t *testing.T) {
	if RuleArgmax.String() != "argmax" || RuleFractional.String() != "fractional" {
		t.Error("rule names")
	}
}
