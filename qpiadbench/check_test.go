package main

import (
	"maps"
	"testing"

	"qpiad/internal/eval"
	"qpiad/internal/relation"
)

func testOracle(t *testing.T) *oracle {
	t.Helper()
	cfg := worldConfig(workloads[0])
	cfg.N = 3000
	w, err := eval.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// answerOf renders a source tuple the way the HTTP API does.
func answerOf(o *oracle, tup relation.Tuple, certain bool, conf float64) answerJSON {
	vals := map[string]any{}
	for i, a := range o.attrs {
		switch v := tup[i]; v.Kind() {
		case relation.KindNull:
			vals[a] = nil
		case relation.KindInt:
			vals[a] = float64(v.IntVal())
		default:
			vals[a] = v.Str()
		}
	}
	return answerJSON{Values: vals, Certain: certain, Confidence: conf}
}

func TestCheckAnswers(t *testing.T) {
	o := testOracle(t)
	c := &checker{o: o}
	q := userQuery{strPred("body_style", "Convt")}
	var certain, possible []answerJSON
	for _, id := range o.scan(q) {
		certain = append(certain, answerOf(o, o.byID[id], true, 1))
	}
	col := o.cols["body_style"]
	for _, tup := range o.world.Src.Relation().Tuples() {
		if tup[col].IsNull() && len(possible) < 3 {
			possible = append(possible, answerOf(o, tup, false, 0.8))
		}
	}
	if len(certain) < 2 || len(possible) < 3 {
		t.Fatalf("world too small: %d certain, %d possible", len(certain), len(possible))
	}
	good := c.checkAnswers(q, certain, possible, nil)
	if good.err != nil {
		t.Fatalf("correct answers rejected: %v", good.err)
	}
	if len(good.possible) != len(possible) {
		t.Errorf("verdict lists %d possible answers, want %d", len(good.possible), len(possible))
	}

	tampered := maps.Clone(certain[0].Values)
	tampered["price"] = -1.0
	// A source tuple with a non-null body style that is not a certain
	// answer cannot be a possible one either.
	var notNull answerJSON
	for _, tup := range o.world.Src.Relation().Tuples() {
		if v := tup[col]; !v.IsNull() && v.Str() != "Convt" {
			notNull = answerOf(o, tup, false, 0.8)
			break
		}
	}
	bad := map[string]struct {
		certain, possible []answerJSON
	}{
		"missing certain":         {certain[1:], possible},
		"certain twice":           {append([]answerJSON{certain[0]}, certain...), possible},
		"value not in source":     {append([]answerJSON{{Values: tampered, Certain: true, Confidence: 1}}, certain[1:]...), possible},
		"certain as possible":     {certain, append([]answerJSON{{Values: certain[0].Values, Confidence: 0.5}}, possible...)},
		"possible twice":          {certain, append([]answerJSON{possible[0]}, possible...)},
		"possible not null":       {certain, append([]answerJSON{notNull}, possible[1:]...)},
		"possible marked certain": {certain, append([]answerJSON{{Values: possible[0].Values, Certain: true, Confidence: 1}}, possible[1:]...)},
	}
	for name, b := range bad {
		if v := c.checkAnswers(q, b.certain, b.possible, nil); v.err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// The digest follows the rank order and the confidences.
	swapped := []answerJSON{possible[1], possible[0], possible[2]}
	if v := c.checkAnswers(q, certain, swapped, nil); v.err != nil || v.digest == good.digest {
		t.Errorf("reordered possible answers: err %v, digest unchanged %v", v.err, v.digest == good.digest)
	}
}

func TestDigestMismatchFails(t *testing.T) {
	o := testOracle(t)
	q := userQuery{strPred("make", "Honda")}
	r := newSelect(q, true)
	c := newChecker(o, map[string]string{r.key: "digest of an earlier run"})
	defer c.stop()
	var certain []answerJSON
	for _, id := range o.scan(q) {
		certain = append(certain, answerOf(o, o.byID[id], true, 1))
	}
	body := mustJSON(map[string]any{"certain": certain, "possible": []answerJSON{}, "rewrites_issued": []string{}})
	if v := c.check(r, [32]byte{1}, body); v.err == nil {
		t.Error("a digest that differs from an earlier run's was accepted")
	}
}
