// Quickstart: the paper's running example end-to-end.
//
// We build a used-car database containing the Table 2 fragment plus enough
// generated history for knowledge mining, ask for convertibles, and watch
// QPIAD return the certain answers followed by the ranked relevant
// possible answers — the Z4 and Civic with missing Body Style — each
// justified by the mined AFD Model ⤳ Body Style.
//
// Run with: go run ./examples/quickstart
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
	// A database in the paper's Cars schema: mostly generated listings,
	// plus the exact Table 2 fragment (ids 900001+; two of its tuples have
	// a missing Body Style).
	gd := datagen.Cars(5000, 1)
	db, _ := datagen.MakeIncomplete(gd, 0.10, 2)
	for i, row := range []struct {
		make, model string
		year        int64
		style       qpiad.Value
	}{
		{"Audi", "A4", 2001, qpiad.String("Convt")},
		{"BMW", "Z4", 2002, qpiad.String("Convt")},
		{"Porsche", "Boxster", 2005, qpiad.String("Convt")},
		{"BMW", "Z4", 2003, qpiad.Null()},
		{"Honda", "Civic", 2004, qpiad.Null()},
		{"Toyota", "Camry", 2002, qpiad.String("Sedan")},
	} {
		if err := db.Insert(qpiad.Tuple{
			qpiad.Int(int64(900001 + i)),
			qpiad.Int(row.year),
			qpiad.String(row.make),
			qpiad.String(row.model),
			qpiad.Int(15000),
			qpiad.Int(30000),
			row.style,
			qpiad.String("no"),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// A QPIAD mediator over that database as an autonomous source: web-form
	// access, no null binding.
	sys := qpiad.New(qpiad.Config{Alpha: 0, K: 10})
	if err := sys.AddSource("cars", db, qpiad.Capabilities{}); err != nil {
		log.Fatal(err)
	}

	// Offline knowledge mining from a 10% sample.
	smpl := db.Sample(db.Len()/10, rand.New(rand.NewSource(3)))
	if err := sys.LearnFromSample("cars", smpl, 0); err != nil {
		log.Fatal(err)
	}
	if know, ok := sys.Knowledge("cars"); ok {
		if best, ok := know.AFDs.Best("body_style"); ok {
			fmt.Println("mined:", best)
		}
	}

	// The paper's query: all convertibles.
	q := qpiad.NewQuery("cars", qpiad.Eq("body_style", qpiad.String("Convt")))
	rs, err := sys.Query(context.Background(), "cars", q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncertain answers: %d (first 3 shown)\n", len(rs.Certain))
	for _, a := range rs.Certain[:min(3, len(rs.Certain))] {
		fmt.Println("  ", a.Tuple)
	}

	fmt.Printf("\nranked relevant possible answers: %d (first 8 shown)\n", len(rs.Possible))
	for _, a := range rs.Possible[:min(8, len(rs.Possible))] {
		fmt.Printf("  confidence %.3f  %s\n", a.Confidence, a.Tuple)
		fmt.Printf("    %s\n", a.Explanation)
	}

	// The Table 2 incomplete Z4 (id 900004) should surface with high
	// confidence; the Civic (id 900005) should rank lower or be absent.
	for _, a := range rs.Possible {
		if a.Tuple[0].IntVal() == 900004 {
			fmt.Printf("\nthe Table 2 Z4 with missing Body Style was retrieved at confidence %.3f\n", a.Confidence)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
