// Aggregates: Count and Sum over an incomplete database (Section 4.4).
//
// An aggregate computed over certain answers alone undercounts: tuples
// whose constrained attribute is missing contribute nothing. QPIAD issues
// rewritten queries for the likely-relevant incomplete tuples and folds in
// a rewrite's aggregate when the predicted most-likely value satisfies the
// query (the argmax rule), and predicts missing aggregated values.
// Because we generated the data, we can show the true aggregate alongside.
//
// Run with: go run ./examples/aggregates
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"qpiad"
	"qpiad/internal/datagen"
)

func main() {
	gd := datagen.Cars(8000, 30)
	db, _ := datagen.MakeIncomplete(gd, 0.10, 31)

	sys := qpiad.New(qpiad.Config{Alpha: 1, K: -1}) // unlimited rewrites
	if err := sys.AddSource("cars", db, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}
	smpl := db.Sample(800, rand.New(rand.NewSource(32)))
	if err := sys.LearnFromSample("cars", smpl, 0); err != nil {
		log.Fatal(err)
	}

	// COUNT(*) of convertibles.
	q := qpiad.NewQuery("cars", qpiad.Eq("body_style", qpiad.String("Convt")))
	q.Agg = &qpiad.Aggregate{Func: qpiad.AggCount}
	truthQ := qpiad.NewQuery("cars", qpiad.Eq("body_style", qpiad.String("Convt")))
	truthQ.Agg = &qpiad.Aggregate{Func: qpiad.AggCount}
	truth, err := gd.Aggregate(truthQ)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	noPred, err := sys.QueryAggregate(ctx, "cars", q, qpiad.AggOptions{})
	if err != nil {
		log.Fatal(err)
	}
	withPred, err := sys.QueryAggregate(ctx, "cars", q, qpiad.AggOptions{
		IncludePossible: true,
		PredictMissing:  true,
		Rule:            qpiad.RuleArgmax,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Count(*) where body_style = Convt")
	fmt.Printf("  true value (oracle):            %.0f\n", truth.Value)
	fmt.Printf("  certain answers only:           %.0f\n", noPred.Total)
	fmt.Printf("  QPIAD with prediction:          %.0f  (certain %.0f + possible %.0f from %d rewrites)\n",
		withPred.Total, withPred.Certain, withPred.Possible, len(withPred.Included))

	// SUM(price) of Civics — some Civic tuples miss their price; QPIAD
	// predicts those from {model, year}.
	q2 := qpiad.NewQuery("cars", qpiad.Eq("model", qpiad.String("Civic")))
	q2.Agg = &qpiad.Aggregate{Func: qpiad.AggSum, Attr: "price"}
	truth2, err := gd.Aggregate(q2)
	if err != nil {
		log.Fatal(err)
	}
	no2, err := sys.QueryAggregate(ctx, "cars", q2, qpiad.AggOptions{})
	if err != nil {
		log.Fatal(err)
	}
	with2, err := sys.QueryAggregate(ctx, "cars", q2, qpiad.AggOptions{
		IncludePossible: true,
		PredictMissing:  true,
		Rule:            qpiad.RuleArgmax,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSum(price) where model = Civic")
	fmt.Printf("  true value (oracle):            %.0f\n", truth2.Value)
	fmt.Printf("  certain, nulls skipped:         %.0f  (error %.2f%%)\n", no2.Total, pctErr(no2.Total, truth2.Value))
	fmt.Printf("  QPIAD with prediction:          %.0f  (error %.2f%%)\n", with2.Total, pctErr(with2.Total, truth2.Value))
}

func pctErr(est, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	d := est - truth
	if d < 0 {
		d = -d
	}
	return 100 * d / truth
}
