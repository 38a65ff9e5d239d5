package qpiad_test

import (
	"context"
	"fmt"
	"log"

	"qpiad"
)

// Example demonstrates the full QPIAD flow on the paper's Table 2 fragment
// plus enough history for mining: certain answers come back first, then the
// incomplete Z4 surfaces as a ranked possible answer because its model
// predicts a convertible body style.
func Example() {
	schema := qpiad.MustSchema(
		qpiad.Attribute{Name: "make", Kind: qpiad.KindString},
		qpiad.Attribute{Name: "model", Kind: qpiad.KindString},
		qpiad.Attribute{Name: "year", Kind: qpiad.KindInt},
		qpiad.Attribute{Name: "body_style", Kind: qpiad.KindString},
	)
	db := qpiad.NewRelation("cars", schema)
	add := func(make, model string, year int64, style qpiad.Value) {
		db.MustInsert(qpiad.Tuple{qpiad.String(make), qpiad.String(model), qpiad.Int(year), style})
	}
	// History: Z4s are overwhelmingly convertibles, Civics are sedans.
	for year := int64(1999); year <= 2005; year++ {
		add("BMW", "Z4", year, qpiad.String("Convt"))
		add("BMW", "Z4", year, qpiad.String("Convt"))
		add("Honda", "Civic", year, qpiad.String("Sedan"))
		add("Honda", "Civic", year, qpiad.String("Sedan"))
		add("Audi", "A4", year, qpiad.String("Convt"))
		add("Toyota", "Camry", year, qpiad.String("Sedan"))
	}
	// The Table 2 incomplete tuples.
	add("BMW", "Z4", 2003, qpiad.Null())
	add("Honda", "Civic", 2004, qpiad.Null())

	sys := qpiad.New(qpiad.Config{Alpha: 0, K: 10})
	if err := sys.AddSource("cars", db, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}
	// Tiny database: learn from the database itself as the sample.
	if err := sys.LearnFromSample("cars", db, 1); err != nil {
		log.Fatal(err)
	}

	rs, err := sys.Query(context.Background(), "cars", qpiad.NewQuery("cars",
		qpiad.Eq("body_style", qpiad.String("Convt"))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain answers: %d\n", len(rs.Certain))
	for _, a := range rs.Possible {
		fmt.Printf("possible: %s %s (%d)\n",
			a.Tuple[0], a.Tuple[1], a.Tuple[2].IntVal())
	}
	// Output:
	// certain answers: 21
	// possible: BMW Z4 (2003)
}
