package sample

import (
	"context"
	"math/rand"
	"testing"

	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// bigRel builds a relation with a connected value graph so snowball probing
// can reach every tuple from a single seed.
func bigRel(n int, nullEvery int) *relation.Relation {
	s := relation.MustSchema(
		relation.Attribute{Name: "id", Kind: relation.KindInt},
		relation.Attribute{Name: "make", Kind: relation.KindString},
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "year", Kind: relation.KindInt},
	)
	r := relation.New("cars", s)
	makes := []string{"Honda", "Toyota", "BMW", "Audi"}
	models := []string{"Civic", "Camry", "Z4", "A4"}
	for i := 0; i < n; i++ {
		m := i % 4
		year := relation.Value(relation.Int(int64(1998 + i%8)))
		if nullEvery > 0 && i%nullEvery == 0 {
			year = relation.Null()
		}
		r.MustInsert(relation.Tuple{
			relation.Int(int64(i)), // distinguishes otherwise-identical rows
			relation.String(makes[m]),
			relation.String(models[(m+i/4)%4]),
			year,
		})
	}
	return r
}

func TestProbeCollectsSample(t *testing.T) {
	src := source.New("cars", bigRel(400, 10), source.Capabilities{})
	res, err := Probe(context.Background(), src, Config{
		TargetSize: 100,
		ProbeAttrs: []string{"make", "model"},
		Seeds:      map[string][]relation.Value{"make": {relation.String("Honda")}},
		Rng:        rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Len() != 100 {
		t.Fatalf("sample size = %d, want 100", res.Sample.Len())
	}
	if res.Probes == 0 {
		t.Error("probes not counted")
	}
	// PerInc should be near 1/10.
	if res.PerInc < 0.01 || res.PerInc > 0.3 {
		t.Errorf("PerInc = %v, expected near 0.1", res.PerInc)
	}
	// Sample tuples must be distinct.
	seen := map[string]bool{}
	for _, tu := range res.Sample.Tuples() {
		k := tu.Key()
		if seen[k] {
			t.Fatal("duplicate tuple in sample")
		}
		seen[k] = true
	}
}

func TestProbeUsesOnlySourceInterface(t *testing.T) {
	// A budget-capped source proves Probe goes through Query.
	src := source.New("cars", bigRel(400, 0), source.Capabilities{MaxQueries: 3})
	_, err := Probe(context.Background(), src, Config{
		TargetSize: 1000,
		ProbeAttrs: []string{"make"},
		Seeds:      map[string][]relation.Value{"make": {relation.String("Honda")}},
		Rng:        rand.New(rand.NewSource(2)),
	})
	if err == nil {
		t.Fatal("budget exhaustion should surface as error")
	}
}

func TestProbeNoSeeds(t *testing.T) {
	src := source.New("cars", bigRel(50, 0), source.Capabilities{})
	_, err := Probe(context.Background(), src, Config{
		TargetSize: 10,
		ProbeAttrs: []string{"make"},
		Rng:        rand.New(rand.NewSource(3)),
	})
	if err == nil {
		t.Fatal("no seeds should error")
	}
}

func TestProbeValidation(t *testing.T) {
	src := source.New("cars", bigRel(50, 0), source.Capabilities{})
	if _, err := Probe(context.Background(), src, Config{TargetSize: 10}); err == nil {
		t.Error("nil Rng should error")
	}
	if _, err := Probe(context.Background(), src, Config{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("zero TargetSize should error")
	}
}

func TestProbeDefaultsToBindableAttrs(t *testing.T) {
	src := source.New("cars", bigRel(200, 0), source.Capabilities{BindableAttrs: []string{"make"}})
	res, err := Probe(context.Background(), src, Config{
		TargetSize: 50,
		Seeds:      map[string][]relation.Value{"make": {relation.String("Honda"), relation.String("BMW"), relation.String("Toyota"), relation.String("Audi")}},
		Rng:        rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Len() != 50 {
		t.Errorf("sample size = %d", res.Sample.Len())
	}
}

func TestProbeRespectsMaxProbes(t *testing.T) {
	src := source.New("cars", bigRel(400, 0), source.Capabilities{MaxResults: 1})
	res, err := Probe(context.Background(), src, Config{
		TargetSize: 300,
		MaxProbes:  5,
		ProbeAttrs: []string{"make"},
		Seeds:      map[string][]relation.Value{"make": {relation.String("Honda")}},
		Rng:        rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes > 5 {
		t.Errorf("probes = %d, exceeds MaxProbes", res.Probes)
	}
}

func TestEstimateRatio(t *testing.T) {
	rel := bigRel(400, 0)
	src := source.New("cars", rel, source.Capabilities{})
	rng := rand.New(rand.NewSource(6))
	smpl := rel.Sample(100, rng)
	probes := []relation.Query{
		relation.NewQuery("cars", relation.Eq("make", relation.String("Honda"))),
		relation.NewQuery("cars", relation.Eq("make", relation.String("BMW"))),
	}
	ratio, ok := EstimateRatio(context.Background(), src, smpl, probes)
	if !ok {
		t.Fatal("ratio estimation failed")
	}
	// True ratio is 4; accept a generous band.
	if ratio < 2 || ratio > 8 {
		t.Errorf("ratio = %v, want near 4", ratio)
	}
}

func TestEstimateRatioNoUsableProbes(t *testing.T) {
	rel := bigRel(50, 0)
	src := source.New("cars", rel, source.Capabilities{})
	smpl := relation.New("empty", rel.Schema)
	probes := []relation.Query{
		relation.NewQuery("cars", relation.Eq("make", relation.String("Honda"))),
	}
	if _, ok := EstimateRatio(context.Background(), src, smpl, probes); ok {
		t.Error("empty sample results should yield ok=false")
	}
}
