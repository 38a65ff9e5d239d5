package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// TestDedupUnderIsNull covers the one case where a certain answer can
// collide with a row a rewrite keeps: the user query has an IS NULL
// predicate on a constrained attribute, so certain answers are null there,
// and a rewrite targeting that attribute retrieves them again. Over
// randomized worlds, no tuple may come back both certain and possible, and
// the result must equal what the fold gives when every certain answer
// seeds the dedup set.
func TestDedupUnderIsNull(t *testing.T) {
	ctx := context.Background()
	collisions, queries := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gd := buildCarsGD(1500, seed)
		ed, _ := makeIncomplete(gd, "body_style", 0.15, seed+10)
		ed, _ = makeIncomplete(ed, "make", 0.10, seed+20)
		src := source.New("cars", ed, source.Capabilities{AllowNullBinding: true})
		smpl := ed.Sample(400, rng)
		k, err := MineKnowledge("cars", smpl, float64(ed.Len())/float64(smpl.Len()),
			smpl.IncompleteFraction(),
			KnowledgeConfig{AFD: afd.Config{MinSupport: 5}, Predictor: nbc.PredictorConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{Alpha: []float64{0, 0.5, 1}[rng.Intn(3)], K: 10, NoCache: true})
		m.Register(src, k)

		for i := 0; i < 6; i++ {
			nullAttr := []string{"body_style", "make"}[rng.Intn(2)]
			other := []string{"model", "year"}[rng.Intn(2)]
			pick := ed.Tuple(rng.Intn(ed.Len()))
			v := pick[ed.Schema.MustIndex(other)]
			if v.IsNull() {
				continue
			}
			q := relation.NewQuery("cars", relation.IsNull(nullAttr), relation.Eq(other, v))
			rs, err := m.QuerySelectWithCtx(context.Background(), m.Config(), "cars", q)
			if err != nil {
				t.Fatal(err)
			}
			queries++

			idCol := ed.Schema.MustIndex("id")
			answered := map[int64]bool{}
			for _, a := range rs.AllAnswers() {
				id := a.Tuple[idCol].IntVal()
				if answered[id] {
					t.Fatalf("%s: tuple %d returned twice", q, id)
				}
				answered[id] = true
			}

			ref, n := fullSeedFold(ctx, t, src, q, rs)
			collisions += n
			if !reflect.DeepEqual(ref.Possible, rs.Possible) || !reflect.DeepEqual(ref.Unranked, rs.Unranked) ||
				!reflect.DeepEqual(ref.Issued, rs.Issued) {
				t.Fatalf("%s: result differs from full certain-answer seeding: %d/%d possible, %d/%d unranked",
					q, len(rs.Possible), len(ref.Possible), len(rs.Unranked), len(ref.Unranked))
			}
		}
	}
	if queries == 0 || collisions == 0 {
		t.Fatalf("%d queries, %d certain answers retrieved again by rewrites: the collision path went untested", queries, collisions)
	}
}

// fullSeedFold re-folds rs's issued rewrites with every certain answer in
// the dedup set, as the selection pipeline once did, and counts the
// target-null rows that were certain answers.
func fullSeedFold(ctx context.Context, t *testing.T, src *source.Source, q relation.Query, rs *ResultSet) (*ResultSet, int) {
	t.Helper()
	ref := &ResultSet{Query: q, Source: rs.Source, Certain: rs.Certain}
	seen, certain := map[string]bool{}, map[string]bool{}
	for _, a := range rs.Certain {
		seen[a.Tuple.Key()] = true
		certain[a.Tuple.Key()] = true
	}
	chosen := make([]RewrittenQuery, len(rs.Issued))
	for i, rq := range rs.Issued {
		rq.Kept, rq.Transferred = 0, 0
		chosen[i] = rq
	}
	collisions := 0
	for i, iq := range issueQueries(src, chosen) {
		rows, err := src.QueryCtx(ctx, iq)
		if err != nil {
			t.Fatal(err)
		}
		tcol := src.Schema().MustIndex(chosen[i].TargetAttr)
		for _, row := range rows {
			if row[tcol].IsNull() && certain[row.Key()] {
				collisions++
			}
		}
		foldRewriteResult(ref, src.Schema(), q.ConstrainedAttrs(), seen, chosen[i], fetchResult{rows: rows, attempts: chosen[i].Attempts})
	}
	return ref, collisions
}
