// Multisource: retrieving relevant answers from a source that does not
// support the query attribute (Section 4.3 of the paper, Figure 2 setup).
//
// Cars.com exports Body Style; Yahoo! Autos does not. A query for
// convertibles can still pull relevant cars out of Yahoo! Autos: QPIAD
// learns Model ⤳ Body Style on Cars.com, takes the convertible models from
// Cars.com's base set, and issues model-constrained rewrites to
// Yahoo! Autos — whose schema happily answers model queries.
//
// Run with: go run ./examples/multisource
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
	// Cars.com: full schema, 10% incomplete.
	carsGD := datagen.Cars(6000, 10)
	carsDB, _ := datagen.MakeIncomplete(carsGD, 0.10, 11)

	// Yahoo! Autos: independent inventory whose EXPORTED schema lacks
	// body_style entirely (the cars still have one in reality — we keep it
	// aside as ground truth to check precision at the end).
	yahooGD := datagen.Cars(3000, 20)
	styleCol := yahooGD.Schema.MustIndex("body_style")
	idCol := yahooGD.Schema.MustIndex("id")
	truth := map[int64]string{}
	narrowSchema, err := yahooGD.Schema.Project("id", "year", "make", "model", "price", "mileage", "certified")
	if err != nil {
		log.Fatal(err)
	}
	yahooDB := qpiad.NewRelation("yahoo_autos", narrowSchema)
	for i := 0; i < yahooGD.Len(); i++ {
		t := yahooGD.Tuple(i)
		truth[t[idCol].IntVal()] = t[styleCol].Str()
		yahooDB.MustInsert(qpiad.Tuple{t[0], t[1], t[2], t[3], t[4], t[5], t[7]})
	}

	sys := qpiad.New(qpiad.Config{Alpha: 0, K: 10})
	if err := sys.AddSource("carscom", carsDB, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}
	if err := sys.AddSource("yahoo_autos", yahooDB, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}
	// Only Cars.com is learned; Yahoo! Autos is reached through Cars.com's
	// knowledge.
	smpl := carsDB.Sample(600, rand.New(rand.NewSource(12)))
	if err := sys.LearnFromSample("carscom", smpl, 0); err != nil {
		log.Fatal(err)
	}

	q := qpiad.NewQuery("gs", qpiad.Eq("body_style", qpiad.String("Convt")))
	fmt.Printf("query on the global schema: %s\n", q)
	fmt.Println("yahoo_autos does not export body_style — a certain-answer-only mediator returns nothing from it")

	rs, err := sys.QueryCorrelated(context.Background(), "yahoo_autos", q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQPIAD retrieved %d possible answers from yahoo_autos via %d rewrites:\n",
		len(rs.Possible), len(rs.Issued))
	for _, rq := range rs.Issued[:min(5, len(rs.Issued))] {
		fmt.Printf("  %-40s precision=%.3f\n", rq.Query, rq.Precision)
	}

	// Score against the hidden truth.
	hits := 0
	for _, a := range rs.Possible {
		if truth[a.Tuple[narrowSchema.MustIndex("id")].IntVal()] == "Convt" {
			hits++
		}
	}
	fmt.Printf("\nprecision against yahoo_autos's hidden body styles: %.3f (%d/%d)\n",
		float64(hits)/float64(len(rs.Possible)), hits, len(rs.Possible))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
