package baseline

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/core"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// fixture mirrors the core-package test world: planted model ~> body_style
// at 0.9, model -> make exact, 10% nulls on body_style.
type fixture struct {
	gd, ed *relation.Relation
	truth  map[int]relation.Value
	src    *source.Source
	k      *core.Knowledge
}

var models = []struct {
	model, make, primary, secondary string
	pPrimary                        float64
}{
	{"A4", "Audi", "Convt", "Sedan", 0.7},
	{"Z4", "BMW", "Convt", "Coupe", 0.95},
	{"Civic", "Honda", "Sedan", "Coupe", 0.85},
	{"Camry", "Toyota", "Sedan", "Sedan", 1},
}

func newFixture(t *testing.T, allowNullBinding bool) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	s := relation.MustSchema(
		relation.Attribute{Name: "id", Kind: relation.KindInt},
		relation.Attribute{Name: "make", Kind: relation.KindString},
		relation.Attribute{Name: "model", Kind: relation.KindString},
		relation.Attribute{Name: "body_style", Kind: relation.KindString},
	)
	gd := relation.New("cars", s)
	for i := 0; i < 2000; i++ {
		m := models[rng.Intn(len(models))]
		style := m.primary
		if rng.Float64() > m.pPrimary {
			style = m.secondary
		}
		gd.MustInsert(relation.Tuple{
			relation.Int(int64(i)),
			relation.String(m.make),
			relation.String(m.model),
			relation.String(style),
		})
	}
	ed := gd.Clone()
	truth := make(map[int]relation.Value)
	col := s.MustIndex("body_style")
	for i := 0; i < ed.Len(); i++ {
		if rng.Float64() < 0.1 {
			truth[i] = ed.Tuple(i)[col]
			ed.Tuple(i)[col] = relation.Null()
		}
	}
	src := source.New("cars", ed, source.Capabilities{AllowNullBinding: allowNullBinding})
	smpl := ed.Sample(300, rng)
	k, err := core.MineKnowledge("cars", smpl,
		float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(),
		core.KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{gd: gd, ed: ed, truth: truth, src: src, k: k}
}

func convtQ() relation.Query {
	return relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
}

func TestAllReturnedRetrievesEveryNullTuple(t *testing.T) {
	f := newFixture(t, true)
	rs, err := AllReturned(context.Background(), f.src, convtQ())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) != len(f.truth) {
		t.Errorf("possible = %d, nulled tuples = %d", len(rs.Possible), len(f.truth))
	}
	// Unranked: every possible answer has confidence 0.
	for _, a := range rs.Possible {
		if a.Confidence != 0 {
			t.Fatal("AllReturned must not rank")
		}
	}
	// Certain answers match the ED exactly.
	if len(rs.Certain) != f.ed.Count(convtQ()) {
		t.Errorf("certain = %d", len(rs.Certain))
	}
}

func TestAllReturnedNeedsNullBinding(t *testing.T) {
	f := newFixture(t, false)
	_, err := AllReturned(context.Background(), f.src, convtQ())
	if !errors.Is(err, source.ErrNullBinding) {
		t.Fatalf("err = %v, want ErrNullBinding", err)
	}
}

func TestAllRankedOrdersByRelevance(t *testing.T) {
	f := newFixture(t, true)
	rs, err := AllRanked(context.Background(), f.src, convtQ(), f.k)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) != len(f.truth) {
		t.Errorf("AllRanked must retrieve the same set as AllReturned")
	}
	for i := 1; i < len(rs.Possible); i++ {
		if rs.Possible[i-1].Confidence < rs.Possible[i].Confidence {
			t.Fatal("AllRanked possible answers not sorted")
		}
	}
	// Top-ranked slice should beat the overall base rate by a clear margin.
	idCol := f.ed.Schema.MustIndex("id")
	relevantAt := func(k int) float64 {
		n := 0
		for _, a := range rs.Possible[:k] {
			tv := f.truth[int(a.Tuple[idCol].IntVal())]
			if !tv.IsNull() && tv.Str() == "Convt" {
				n++
			}
		}
		return float64(n) / float64(k)
	}
	overall := relevantAt(len(rs.Possible))
	top := relevantAt(len(rs.Possible) / 4)
	if top <= overall {
		t.Errorf("ranking should concentrate relevance: top=%v overall=%v", top, overall)
	}
}

func TestAllRankedRequiresKnowledge(t *testing.T) {
	f := newFixture(t, true)
	if _, err := AllRanked(context.Background(), f.src, convtQ(), nil); err == nil {
		t.Error("nil knowledge should error")
	}
}

func TestBaselineTransfersEverything(t *testing.T) {
	// The inefficiency the paper highlights: baselines transfer every
	// null-bearing tuple regardless of relevance.
	f := newFixture(t, true)
	f.src.ResetStats()
	if _, err := AllReturned(context.Background(), f.src, convtQ()); err != nil {
		t.Fatal(err)
	}
	st := f.src.Stats()
	wantMin := len(f.truth) // all nulled tuples ...
	if st.TuplesReturned < wantMin {
		t.Errorf("transferred %d tuples, expected at least %d", st.TuplesReturned, wantMin)
	}
}

func TestMultiAttributeBaseline(t *testing.T) {
	f := newFixture(t, true)
	q := relation.NewQuery("cars",
		relation.Eq("model", relation.String("Z4")),
		relation.Eq("body_style", relation.String("Convt")),
	)
	rs, err := AllRanked(context.Background(), f.src, q, f.k)
	if err != nil {
		t.Fatal(err)
	}
	// Possible answers: null on body_style with model=Z4, or null on model
	// with body_style=Convt; never more than one null over constrained.
	for _, a := range rs.Possible {
		if n := a.Tuple.NullCountOn(f.ed.Schema, q.ConstrainedAttrs()); n != 1 {
			t.Fatalf("ranked possible answer with %d constrained nulls", n)
		}
	}
}
