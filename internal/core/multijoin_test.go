package core

import (
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/datagen"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// chainFixture wires three incomplete sources: cars ⋈(model) complaints
// ⋈(general_component=component) recalls.
type chainFixture struct {
	m               *Mediator
	cars, comp, rec *relation.Relation
	carsGD, compGD  *relation.Relation
	recGD           *relation.Relation
}

func newChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	mk := func(name string, gd *relation.Relation, nullAttr string, seed int64) (*relation.Relation, *source.Source, *Knowledge) {
		ed, _ := datagen.MakeIncompleteAttr(gd, nullAttr, 0.10, seed)
		src := source.New(name, ed, source.Capabilities{})
		smpl := ed.Sample(ed.Len()/8, rng)
		k, err := MineKnowledge(name, smpl,
			float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
			KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		return ed, src, k
	}
	carsGD := datagen.Cars(2500, 62)
	compGD := datagen.Complaints(2500, 63)
	recGD := datagen.Recalls(800, 64)

	cars, carsSrc, carsK := mk("cars", carsGD, "model", 65)
	comp, compSrc, compK := mk("complaints", compGD, "general_component", 66)
	rec, recSrc, recK := mk("recalls", recGD, "severity", 67)

	m := New(Config{Alpha: 0.5, K: 8})
	m.Register(carsSrc, carsK)
	m.Register(compSrc, compK)
	m.Register(recSrc, recK)
	return &chainFixture{m: m, cars: cars, comp: comp, rec: rec,
		carsGD: carsGD, compGD: compGD, recGD: recGD}
}

// chainSpec is a selective three-way chain: F150s of one model year, their
// fire complaints, and severe recalls of the implicated component.
func chainSpec(alpha float64, k int) ChainSpec {
	return ChainSpec{
		Sources: []string{"cars", "complaints", "recalls"},
		Queries: []relation.Query{
			relation.NewQuery("cars",
				relation.Eq("model", relation.String("F150")),
				relation.Eq("year", relation.Int(2003))),
			relation.NewQuery("complaints", relation.Eq("fire", relation.String("yes"))),
			relation.NewQuery("recalls", relation.Eq("severity", relation.String("severe"))),
		},
		JoinAttrs: [][2]string{
			{"model", "model"},
			{"general_component", "component"},
		},
		Alpha: alpha,
		K:     k,
	}
}

// pairChainSpec is the two-source degenerate chain mirroring the pairwise
// join test, where predicted join links are abundant.
func pairChainSpec(alpha float64, k int) ChainSpec {
	return ChainSpec{
		Sources: []string{"cars", "complaints"},
		Queries: []relation.Query{
			relation.NewQuery("cars", relation.Eq("model", relation.String("F150"))),
			relation.NewQuery("complaints", relation.Eq("general_component", relation.String("Electrical System"))),
		},
		JoinAttrs: [][2]string{{"model", "model"}},
		Alpha:     alpha,
		K:         k,
	}
}

func TestChainJoinBasic(t *testing.T) {
	f := newChainFixture(t)
	res, err := f.m.QueryJoinChain(chainSpec(0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no chained answers")
	}
	if len(res.PairsPerAdjacency) != 2 {
		t.Fatalf("adjacencies = %v", res.PairsPerAdjacency)
	}
	carsModel := f.cars.Schema.MustIndex("model")
	compModel := f.comp.Schema.MustIndex("model")
	compComp := f.comp.Schema.MustIndex("general_component")
	recComp := f.rec.Schema.MustIndex("component")
	for _, a := range res.Answers {
		if len(a.Tuples) != 3 {
			t.Fatalf("chain length %d", len(a.Tuples))
		}
		if a.Confidence <= 0 || a.Confidence > 1 {
			t.Fatalf("confidence %v", a.Confidence)
		}
		// Certain chains must have exactly matching non-null join values.
		if a.Certain {
			if !a.Tuples[0][carsModel].Equal(a.Tuples[1][compModel]) {
				t.Fatal("certain chain with mismatched models")
			}
			if !a.Tuples[1][compComp].Equal(a.Tuples[2][recComp]) {
				t.Fatal("certain chain with mismatched components")
			}
			if a.Confidence != 1 {
				t.Fatalf("certain chain confidence %v", a.Confidence)
			}
		}
	}
}

func TestChainJoinIncludesPredictedLinks(t *testing.T) {
	f := newChainFixture(t)
	res, err := f.m.QueryJoinChain(pairChainSpec(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	compModel := f.comp.Schema.MustIndex("model")
	carsModel := f.cars.Schema.MustIndex("model")
	sawPredicted := false
	for _, a := range res.Answers {
		if a.Tuples[0][carsModel].IsNull() || a.Tuples[1][compModel].IsNull() {
			sawPredicted = true
			if a.Certain {
				t.Fatal("chain across a null join value cannot be certain")
			}
			if a.Confidence >= 1 {
				t.Fatalf("predicted chain confidence %v", a.Confidence)
			}
		}
	}
	if !sawPredicted {
		t.Error("expected chains across predicted join values")
	}
}

func TestChainJoinOrdering(t *testing.T) {
	f := newChainFixture(t)
	res, err := f.m.QueryJoinChain(chainSpec(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	seenPossible := false
	last := 2.0
	for _, a := range res.Answers {
		if a.Certain && seenPossible {
			t.Fatal("certain after possible")
		}
		if !a.Certain {
			if !seenPossible {
				last = 2.0
			}
			seenPossible = true
			if a.Confidence > last {
				t.Fatal("possible chains not sorted by confidence")
			}
			last = a.Confidence
		}
	}
}

// TestChainJoinTwoWayDegenerate relates a 2-source chain to the pairwise
// join over the same selections. The chain may return more: it retrieves
// the union of each side's selected component queries and joins those
// answer sets wholesale, while QueryJoin joins only the selected query
// pairs. So every pairwise answer must appear in the chain with the same
// Confidence and Certain flag, and the chain may add pairs the top-K pair
// budget left out.
func TestChainJoinTwoWayDegenerate(t *testing.T) {
	f := newChainFixture(t)
	for _, tc := range []struct {
		alpha float64
		k     int
	}{{0, 4}, {0.5, 8}, {2, 10}, {0.5, 2}} {
		spec := pairChainSpec(tc.alpha, tc.k)
		chain, err := f.m.QueryJoinChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := f.m.QueryJoin(JoinSpec{
			LeftSource: spec.Sources[0], RightSource: spec.Sources[1],
			LeftQuery: spec.Queries[0], RightQuery: spec.Queries[1],
			LeftJoinAttr: spec.JoinAttrs[0][0], RightJoinAttr: spec.JoinAttrs[0][1],
			Alpha: tc.alpha, K: tc.k,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(pair.Answers) == 0 {
			t.Fatalf("α=%v K=%d: no pairwise answers", tc.alpha, tc.k)
		}
		inChain := make(map[string]ChainAnswer, len(chain.Answers))
		for _, a := range chain.Answers {
			inChain[a.Tuples[0].Key()+"\x00"+a.Tuples[1].Key()] = a
		}
		for _, a := range pair.Answers {
			c, ok := inChain[a.Left.Key()+"\x00"+a.Right.Key()]
			if !ok {
				t.Fatalf("α=%v K=%d: pairwise answer missing from the chain: %v ⋈ %v", tc.alpha, tc.k, a.Left, a.Right)
			}
			if c.Confidence != a.Confidence || c.Certain != a.Certain {
				t.Fatalf("α=%v K=%d: chain answer (conf %v, certain %v) differs from pairwise (conf %v, certain %v)",
					tc.alpha, tc.k, c.Confidence, c.Certain, a.Confidence, a.Certain)
			}
		}
		t.Logf("α=%v K=%d: pairwise %d ⊆ chain %d", tc.alpha, tc.k, len(pair.Answers), len(chain.Answers))
	}
}

func TestChainJoinValidation(t *testing.T) {
	f := newChainFixture(t)
	bad := chainSpec(0.5, 8)
	bad.Sources = bad.Sources[:1]
	if _, err := f.m.QueryJoinChain(bad); err == nil {
		t.Error("single-source chain should error")
	}
	bad = chainSpec(0.5, 8)
	bad.Queries = bad.Queries[:2]
	if _, err := f.m.QueryJoinChain(bad); err == nil {
		t.Error("query/source count mismatch should error")
	}
	bad = chainSpec(0.5, 8)
	bad.Sources[2] = "nope"
	if _, err := f.m.QueryJoinChain(bad); err == nil {
		t.Error("unknown source should error")
	}
	bad = chainSpec(0.5, 8)
	bad.JoinAttrs[1] = [2]string{"nope", "component"}
	if _, err := f.m.QueryJoinChain(bad); err == nil {
		t.Error("unknown join attribute should error")
	}
}
