package eval

import (
	"fmt"

	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// WorldConfig describes one experimental setup.
type WorldConfig struct {
	// Name labels the world (and its source).
	Name string
	// Dataset generates the complete ground truth.
	Dataset func(n int, seed int64) *relation.Relation
	// N is the ground-truth cardinality.
	N int
	// IncompleteFrac is the fraction of tuples made incomplete (paper: 0.10).
	IncompleteFrac float64
	// NullAttr, when non-empty, confines nulls to one attribute; otherwise
	// the paper's random-attribute protocol applies.
	NullAttr string
	// TrainFrac is the training-sample fraction of ED (paper: 0.03–0.15).
	TrainFrac float64
	// Seed drives all randomness.
	Seed int64
	// Caps configures the simulated source's access profile.
	Caps source.Capabilities
	// Mediator configures rewriting/ranking (α, K).
	Mediator core.Config
	// Knowledge configures mining.
	Knowledge core.KnowledgeConfig
}

// World is a ready-to-run experimental setup: ground truth, incomplete
// test database behind an autonomous source, mined knowledge, and a
// mediator.
type World struct {
	Name   string
	GD     *relation.Relation
	ED     *relation.Relation
	Train  *relation.Relation
	Test   *relation.Relation
	Hidden map[int64]map[string]relation.Value
	Src    *source.Source
	Know   *core.Knowledge
	Med    *core.Mediator
	idCol  int
}

// NewWorld builds the Section 6.2 protocol: GD → (10% incomplete) ED →
// train/test split → source over test → knowledge mined from train.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Dataset == nil || cfg.N <= 0 {
		return nil, fmt.Errorf("eval: WorldConfig needs Dataset and N")
	}
	if cfg.IncompleteFrac == 0 {
		cfg.IncompleteFrac = 0.10
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.10
	}
	gd := cfg.Dataset(cfg.N, cfg.Seed)
	var (
		ed     *relation.Relation
		hidden []datagen.Hidden
	)
	if cfg.NullAttr != "" {
		ed, hidden = datagen.MakeIncompleteAttr(gd, cfg.NullAttr, cfg.IncompleteFrac, cfg.Seed+1)
	} else {
		ed, hidden = datagen.MakeIncomplete(gd, cfg.IncompleteFrac, cfg.Seed+1)
	}
	train, test, err := datagen.Split(ed, cfg.TrainFrac, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	src := source.New(cfg.Name, test, cfg.Caps)
	ratio := float64(test.Len()) / float64(train.Len())
	know, err := core.MineKnowledge(cfg.Name, train, ratio, train.IncompleteFraction(), cfg.Knowledge)
	if err != nil {
		return nil, err
	}
	// Experiments account source traffic (queries issued, tuples
	// transferred, retries); a transparent answer cache would absorb repeat
	// queries and skew exactly those metrics, so worlds always run uncached.
	cfg.Mediator.NoCache = true
	med := core.New(cfg.Mediator)
	med.Register(src, know)

	idCol := -1
	for _, name := range []string{"id", "cid"} {
		if i, ok := gd.Schema.Index(name); ok {
			idCol = i
			break
		}
	}
	if idCol < 0 {
		return nil, fmt.Errorf("eval: dataset %s lacks an id column", cfg.Name)
	}
	return &World{
		Name:   cfg.Name,
		GD:     gd,
		ED:     ed,
		Train:  train,
		Test:   test,
		Hidden: datagen.HiddenIndex(hidden),
		Src:    src,
		Know:   know,
		Med:    med,
		idCol:  idCol,
	}, nil
}

// ID extracts the id of a tuple in this world's schema.
func (w *World) ID(t relation.Tuple) int64 { return t[w.idCol].IntVal() }

// TruthOf returns the hidden ground-truth value of attr for the tuple, or
// ok=false if that cell was never nulled.
func (w *World) TruthOf(t relation.Tuple, attr string) (relation.Value, bool) {
	m, ok := w.Hidden[w.ID(t)]
	if !ok {
		return relation.Null(), false
	}
	v, ok := m[attr]
	return v, ok
}

// IsRelevant judges a possible answer: for every constrained attribute the
// tuple is null on, the hidden ground-truth value must satisfy the
// predicate. Tuples with no constrained null are not possible answers and
// judge false.
func (w *World) IsRelevant(ans core.Answer, q relation.Query) bool {
	anyNull := false
	for _, p := range q.Preds {
		col, ok := w.Test.Schema.Index(p.Attr)
		if !ok {
			return false
		}
		if !ans.Tuple[col].IsNull() {
			continue
		}
		anyNull = true
		truth, ok := w.TruthOf(ans.Tuple, p.Attr)
		if !ok {
			return false
		}
		probe := ans.Tuple.Clone()
		probe[col] = truth
		if !p.Matches(w.Test.Schema, probe) {
			return false
		}
	}
	return anyNull
}

// RelevanceFlags maps ranked answers to relevance booleans.
func (w *World) RelevanceFlags(answers []core.Answer, q relation.Query) []bool {
	out := make([]bool, len(answers))
	for i, a := range answers {
		out[i] = w.IsRelevant(a, q)
	}
	return out
}

// RelevantPossibleCount counts the relevant possible answers present in the
// test database: tuples null on ≥1 constrained attribute whose hidden
// values satisfy their predicates and whose visible constrained values
// satisfy theirs.
func (w *World) RelevantPossibleCount(q relation.Query) int {
	n := 0
	for _, t := range w.Test.Tuples() {
		anyNull := false
		ok := true
		for _, p := range q.Preds {
			col, has := w.Test.Schema.Index(p.Attr)
			if !has {
				ok = false
				break
			}
			if t[col].IsNull() {
				anyNull = true
				truth, has := w.TruthOf(t, p.Attr)
				if !has {
					ok = false
					break
				}
				probe := t.Clone()
				probe[col] = truth
				if !p.Matches(w.Test.Schema, probe) {
					ok = false
					break
				}
			} else if !p.Matches(w.Test.Schema, t) {
				// A predicate on a non-null attribute must hold outright.
				ok = false
				break
			}
		}
		if ok && anyNull {
			n++
		}
	}
	return n
}
