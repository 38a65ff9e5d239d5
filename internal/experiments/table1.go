package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"qpiad/internal/datagen"
	"qpiad/internal/relation"
	"qpiad/internal/sample"
	"qpiad/internal/source"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Statistics on missing values in web databases (random-probe survey)",
		Run:   Table1,
	})
}

// Table1 reproduces the paper's Table 1: three autonomous web car databases
// are simulated with their observed incompleteness profiles, then surveyed
// exactly the way the paper did — by probing a random sample through the
// restricted query interface and computing the missing-value statistics on
// that sample.
func Table1(s Scale) (*Report, error) {
	profiles := []datagen.WebProfile{
		datagen.AutoTraderProfile,
		datagen.CarsDirectProfile,
		datagen.GoogleBaseProfile,
	}
	rep := &Report{ID: "table1", Title: "Statistics on missing values in web databases"}
	tbl := Table{
		Name:   "probed-sample statistics",
		Header: []string{"Website", "#Attributes", "Total Tuples", "Incomplete Tuples %", "Body Style %", "Engine %"},
	}
	seeds := map[string][]relation.Value{}
	for _, m := range datagen.CarModels {
		seeds["model"] = append(seeds["model"], relation.String(m.Model))
	}
	for i, p := range profiles {
		gd := datagen.WebCars(s.WebN, s.Seed+int64(i))
		ed := datagen.ApplyProfile(gd, p, s.Seed+100+int64(i))
		src := source.New(p.Name, ed, source.Capabilities{})
		res, err := sample.Probe(context.Background(), src, sample.Config{
			TargetSize: s.WebN / 10,
			ProbeAttrs: []string{"model", "make"},
			Seeds:      seeds,
			Rng:        rand.New(rand.NewSource(s.Seed + 200 + int64(i))),
		})
		if err != nil {
			return nil, fmt.Errorf("table1: probing %s: %w", p.Name, err)
		}
		smpl := res.Sample
		tbl.Rows = append(tbl.Rows, []string{
			p.Name,
			fmt.Sprintf("%d", smpl.Schema.Len()-1), // id excluded
			fmt.Sprintf("%d", ed.Len()),
			fmtPct(smpl.IncompleteFraction()),
			fmtPct(smpl.NullFraction("body_style")),
			fmtPct(smpl.NullFraction("engine")),
		})
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddNote("paper survey: autotrader 33.67%%/3.6%%/8.1%%, carsdirect 98.74%%/55.7%%/55.8%%, googlebase 100%%/83.36%%/91.98%%")
	return rep, nil
}
