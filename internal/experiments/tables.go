package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

func init() {
	register("table1", table1)
	register("table2", table2)
	register("table3", table3)
}

// table1 reproduces Table 1: the catalog of original datasets (sizes
// and what nodes/links describe). These are the published figures; the
// table exists so every paper artifact has a runner.
func table1(cfg Config) (Table, error) {
	t := Table{
		Title:   "Description of the original datasets (paper Table 1)",
		Columns: []string{"Data Set", "Nodes", "Links", "Node kind", "Link kind"},
	}
	for _, d := range dataset.Originals() {
		t.Rows = append(t.Rows, []string{
			d.Name,
			strconv.Itoa(d.Nodes),
			strconv.Itoa(d.Links),
			d.NodeKind,
			d.LinkKind,
		})
	}
	t.Note = "published catalog values; originals are not regenerated (see docs/ARCHITECTURE.md, Scale substitution)"
	return t, nil
}

// table2 reproduces Table 2: properties of the original datasets. The
// published values are listed beside the properties of a scaled
// synthetic emulator so the calibration quality is visible.
func table2(cfg Config) (Table, error) {
	t := Table{
		Title:   "Original dataset properties (paper Table 2; published values)",
		Columns: []string{"Data Set", "Diameter", "Av. Deg.", "STDD", "ACC"},
	}
	for _, d := range dataset.Originals() {
		t.Rows = append(t.Rows, []string{
			d.Name,
			strconv.Itoa(d.Diameter),
			fmt.Sprintf("%.2f", d.AvgDegree),
			fmt.Sprintf("%.2f", d.DegreeStdD),
			fmt.Sprintf("%.4f", d.AvgClusterC),
		})
	}
	t.Note = "published values; the sampled stand-ins of Table 3 are what the experiments consume"
	return t, nil
}

// table3 reproduces Table 3: the sampled graphs the experiments run
// on. Each row shows the paper's published sample statistics and the
// measured statistics of our calibrated synthetic stand-in.
func table3(cfg Config) (Table, error) {
	t := Table{
		Title: "Sampled graph properties: paper vs. generated stand-in (paper Table 3)",
		Columns: []string{
			"Sample", "Nodes", "Links(paper)", "Links(ours)",
			"Diam(paper)", "Diam(ours)",
			"AvgDeg(paper)", "AvgDeg(ours)",
			"STDD(paper)", "STDD(ours)",
			"ACC(paper)", "ACC(ours)",
		},
	}
	for _, s := range dataset.Samples() {
		g := dataset.Generate(s, cfg.Seed)
		p := metrics.Properties(g)
		t.Rows = append(t.Rows, []string{
			s.Key,
			strconv.Itoa(s.N),
			strconv.Itoa(s.M), strconv.Itoa(p.Links),
			strconv.Itoa(s.Diameter), strconv.Itoa(p.Diameter),
			fmt.Sprintf("%.2f", s.AvgDegree), fmt.Sprintf("%.2f", p.Degree.Average),
			fmt.Sprintf("%.2f", s.DegreeStdD), fmt.Sprintf("%.2f", p.Degree.StdDev),
			fmt.Sprintf("%.2f", s.AvgClusterC), fmt.Sprintf("%.2f", p.ACC),
		})
		cfg.progress("  %s done", s.Key)
	}
	t.Note = "stand-ins are seeded generators calibrated to the published statistics"
	return t, nil
}
