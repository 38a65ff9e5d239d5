package qpiad

import (
	"context"
	"math/rand"
	"testing"

	"qpiad/internal/datagen"
)

// newSystem builds a learned system over a synthetic cars source.
func newSystem(t *testing.T, cfg Config) (*System, *Relation) {
	t.Helper()
	gd := datagen.Cars(4000, 11)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 12)
	sys := New(cfg)
	if err := sys.AddSource("cars", ed, Capabilities{}); err != nil {
		t.Fatal(err)
	}
	smpl := ed.Sample(400, rand.New(rand.NewSource(13)))
	if err := sys.LearnFromSample("cars", smpl, 0); err != nil {
		t.Fatal(err)
	}
	return sys, ed
}

func TestSystemEndToEnd(t *testing.T) {
	sys, ed := newSystem(t, Config{Alpha: 0, K: 10})
	q := NewQuery("cars", Eq("body_style", String("Convt")))
	rs, err := sys.Query(context.Background(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Certain) == 0 {
		t.Error("expected certain answers")
	}
	if len(rs.Possible) == 0 {
		t.Error("expected possible answers")
	}
	col := ed.Schema.MustIndex("body_style")
	for _, a := range rs.Possible {
		if !a.Tuple[col].IsNull() {
			t.Fatal("possible answer not null on constrained attribute")
		}
	}
	if st, ok := sys.SourceStats("cars"); !ok || st.Queries == 0 {
		t.Error("source stats missing")
	}
	if _, ok := sys.Knowledge("cars"); !ok {
		t.Error("knowledge missing after learning")
	}
}

func TestSystemAggregate(t *testing.T) {
	sys, _ := newSystem(t, Config{Alpha: 1, K: -1})
	q := NewQuery("cars", Eq("body_style", String("Convt")))
	q.Agg = &Aggregate{Func: AggCount}
	plain, err := sys.QueryAggregate(context.Background(), "cars", q, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sys.QueryAggregate(context.Background(), "cars", q, AggOptions{IncludePossible: true, PredictMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Total <= plain.Total {
		t.Errorf("prediction should add possible tuples: %v vs %v", pred.Total, plain.Total)
	}
}

func TestSystemValidation(t *testing.T) {
	sys := New(Config{})
	if err := sys.AddSource("", nil, Capabilities{}); err == nil {
		t.Error("empty AddSource should error")
	}
	gd := datagen.Cars(100, 1)
	if err := sys.AddSource("cars", gd, Capabilities{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSource("cars", gd, Capabilities{}); err == nil {
		t.Error("duplicate AddSource should error")
	}
	if err := sys.LearnFromSample("nope", gd, 0); err == nil {
		t.Error("learning an unknown source should error")
	}
	for _, ratio := range []float64{0, 2} {
		if err := sys.LearnFromSample("cars", nil, ratio); err == nil {
			t.Errorf("learning from a nil sample (ratio %v) should error", ratio)
		}
	}
	if _, err := sys.Query(context.Background(), "cars", NewQuery("cars")); err == nil {
		t.Error("querying an unlearned source should error")
	}
}

func TestSystemLearnByProbing(t *testing.T) {
	gd := datagen.Cars(3000, 21)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 22)
	sys := New(Config{})
	if err := sys.AddSource("cars", ed, Capabilities{}); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]Value{}
	for _, m := range datagen.CarModels {
		seeds["model"] = append(seeds["model"], String(m.Model))
	}
	err := sys.LearnByProbing(context.Background(), "cars", ProbeConfig{
		TargetSize: 300,
		ProbeAttrs: []string{"model", "make"},
		Seeds:      seeds,
	}, 23)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.Query(context.Background(), "cars", NewQuery("cars", Eq("body_style", String("Sedan"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Possible) == 0 {
		t.Error("probed knowledge should still produce possible answers")
	}
}

func TestSystemCSVRoundTripIntegration(t *testing.T) {
	gd := datagen.Cars(200, 31)
	path := t.TempDir() + "/cars.csv"
	if err := gd.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCSV("cars", path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != gd.Len() {
		t.Errorf("CSV round trip: %d rows", loaded.Len())
	}
}

func TestSystemKnowledgePersistence(t *testing.T) {
	sys, ed := newSystem(t, Config{Alpha: 0, K: 10})
	path := t.TempDir() + "/cars.knowledge.json"
	if err := sys.SaveKnowledge("cars", path); err != nil {
		t.Fatal(err)
	}
	// A fresh system over the same source, learning from the file alone.
	sys2 := New(Config{Alpha: 0, K: 10})
	if err := sys2.AddSource("cars", ed, Capabilities{}); err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadKnowledge("cars", path); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("cars", Eq("body_style", String("Convt")))
	rs1, err := sys.Query(context.Background(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := sys2.Query(context.Background(), "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs1.Possible) != len(rs2.Possible) {
		t.Errorf("loaded knowledge answers %d vs %d", len(rs2.Possible), len(rs1.Possible))
	}
	// Errors.
	if err := sys.SaveKnowledge("nope", path); err == nil {
		t.Error("saving unknown source should error")
	}
	if err := sys2.LoadKnowledge("nope", path); err == nil {
		t.Error("loading into unknown source should error")
	}
	if err := sys2.LoadKnowledge("cars", "/nonexistent"); err == nil {
		t.Error("loading missing file should error")
	}
}

func TestSystemParseSQLIntegration(t *testing.T) {
	sys, ed := newSystem(t, Config{Alpha: 0, K: 10})
	st, err := ParseSQL("SELECT make, model FROM cars WHERE body_style = 'Convt'")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CoerceTypes(ed.Schema); err != nil {
		t.Fatal(err)
	}
	rs, err := sys.Query(context.Background(), "cars", st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Certain) == 0 || len(rs.Possible) == 0 {
		t.Error("SQL-driven query returned nothing")
	}
	projected, ps, err := rs.Project(ed.Schema, st.Projection)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 || len(projected.Possible) != len(rs.Possible) {
		t.Error("projection mismatch")
	}
}

func TestKUnlimitedAndDefault(t *testing.T) {
	if got := New(Config{}).Mediator().Config().K; got != 10 {
		t.Errorf("default K = %d, want 10", got)
	}
	if got := New(Config{K: -1}).Mediator().Config().K; got != 0 {
		t.Errorf("K=-1 should map to unlimited (0), got %d", got)
	}
	if got := New(Config{K: 7}).Mediator().Config().K; got != 7 {
		t.Errorf("K=7 preserved, got %d", got)
	}
}
