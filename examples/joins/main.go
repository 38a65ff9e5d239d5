// Joins: Cars ⋈(model) Complaints over two incomplete autonomous sources
// (Section 4.5 of the paper).
//
// The user asks for Jeep Grand Cherokees that have engine-cooling
// complaints. Both sides are incomplete: some cars miss their model, some
// complaints miss theirs. QPIAD scores query *pairs* — each side's complete
// query and its rewrites — by combined precision and join-aware estimated
// selectivity, issues the top-K pairs, and joins the results, predicting
// missing join values with the NBC classifiers.
//
// Run with: go run ./examples/joins
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
	carsGD := datagen.Cars(6000, 40)
	carsDB, _ := datagen.MakeIncomplete(carsGD, 0.10, 41)
	compGD := datagen.Complaints(8000, 42)
	compDB, _ := datagen.MakeIncomplete(compGD, 0.10, 43)

	sys := qpiad.New(qpiad.Config{Alpha: 0, K: 10})
	if err := sys.AddSource("cars", carsDB, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}
	if err := sys.AddSource("complaints", compDB, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	if err := sys.LearnFromSample("cars", carsDB.Sample(600, rng), 0); err != nil {
		log.Fatal(err)
	}
	if err := sys.LearnFromSample("complaints", compDB.Sample(800, rng), 0); err != nil {
		log.Fatal(err)
	}

	for _, alpha := range []float64{0, 2} {
		spec := qpiad.JoinSpec{
			LeftSource:    "cars",
			RightSource:   "complaints",
			LeftQuery:     qpiad.NewQuery("cars", qpiad.Eq("model", qpiad.String("Grand Cherokee"))),
			RightQuery:    qpiad.NewQuery("complaints", qpiad.Eq("general_component", qpiad.String("Engine and Engine Cooling"))),
			LeftJoinAttr:  "model",
			RightJoinAttr: "model",
			Alpha:         alpha,
			K:             10,
		}
		res, err := sys.QueryJoin(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		certain, possible := 0, 0
		for _, a := range res.Answers {
			if a.Certain {
				certain++
			} else {
				possible++
			}
		}
		fmt.Printf("α=%.1f: %d query pairs issued, %d joined answers (%d certain, %d possible)\n",
			alpha, len(res.Pairs), len(res.Answers), certain, possible)
		shown := 0
		for _, a := range res.Answers {
			if a.Certain || shown >= 3 {
				continue
			}
			shown++
			fmt.Printf("  possible join (confidence %.3f) on model=%s\n", a.Confidence, a.JoinValue)
			fmt.Printf("    car:       %s\n", a.Left)
			fmt.Printf("    complaint: %s\n", a.Right)
		}
		fmt.Println()
	}
	fmt.Println("raising α admits higher-throughput (lower-precision) query pairs: more possible joins")
}
