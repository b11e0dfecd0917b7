package experiments

import (
	"fmt"

	"repro/internal/anonymize"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

func init() {
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
}

// fig9: runtime vs theta on Google samples of increasing size. The
// paper shows three panels (|V| = 100, 500, 1000); one table per size
// would be redundant here, so sizes become column groups.
func fig9(cfg Config) (Table, error) {
	sizes := []string{"google100", "google500"}
	if cfg.Full {
		sizes = append(sizes, "google1000")
	}
	methods := fig9Methods(cfg)
	cols := []string{"theta"}
	for _, key := range sizes {
		for _, m := range methods {
			cols = append(cols, fmt.Sprintf("%s %s", key, m.Name))
		}
	}
	t := Table{
		Title:   "Runtime (seconds) vs theta, Google samples (paper Fig. 9a-c)",
		Columns: cols,
	}
	for _, theta := range cfg.thetas() {
		row := []string{fmtPct(theta)}
		for _, key := range sizes {
			g, err := dataset.GenerateByKey(key, cfg.Seed)
			if err != nil {
				return Table{}, err
			}
			for _, m := range methods {
				out := m.run(g, 1, theta, cfg.Seed, cfg.cellBudget())
				if out.Graph == nil {
					row = append(row, "-")
					continue
				}
				mark := ""
				if !out.Satisfied {
					mark = "*"
				}
				row = append(row, fmt.Sprintf("%.3f%s", out.Elapsed.Seconds(), mark))
			}
		}
		t.Rows = append(t.Rows, row)
		cfg.progress("  theta=%.0f%% done", 100*theta)
	}
	t.Note = "L=1; '*' marks runs that terminated without reaching theta (their cost is still charged, as in the paper's GADES rows)"
	return t, nil
}

// fig9Methods trims the Figure 9 legend in the quick regime: the
// GADED/GADES baselines and la=2 configurations dominate runtime
// without changing the growth shape.
func fig9Methods(cfg Config) []method {
	if cfg.Full {
		return fig6Methods()
	}
	return []method{
		ours(anonymize.Removal, 1),
		ours(anonymize.RemovalInsertion, 1),
		theirs2(),
	}
}

// theirs2 returns the strongest baseline (GADED-Max), the one the
// paper singles out for runtime comparison.
func theirs2() method {
	ms := fig6Methods()
	return ms[5] // GADED-Max
}

// fig10: runtime of Rem and Rem-Ins for L in {1,2} across Gnutella
// samples of 100/500/1000 vertices (log-scale bars in the paper; rows
// here).
func fig10(cfg Config) (Table, error) {
	sizes := []string{"gnutella100", "gnutella500"}
	if cfg.Full {
		sizes = append(sizes, "gnutella1000")
	}
	theta := 0.5
	type config struct {
		name string
		h    anonymize.Heuristic
		L    int
	}
	configs := []config{
		{"Rem L=1", anonymize.Removal, 1},
		{"Rem L=2", anonymize.Removal, 2},
		{"Rem-Ins L=1", anonymize.RemovalInsertion, 1},
		{"Rem-Ins L=2", anonymize.RemovalInsertion, 2},
	}
	cols := []string{"Algorithm"}
	for _, key := range sizes {
		cols = append(cols, key)
	}
	t := Table{
		Title:   "Runtime (seconds) by graph size, Gnutella, theta=50% (paper Fig. 10)",
		Columns: cols,
	}
	for _, c := range configs {
		row := []string{c.name}
		for _, key := range sizes {
			// The paper's Fig. 10 bars for Rem-Ins at n=1000 reflect
			// hours of work; in the quick regime the largest Rem-Ins
			// cell is skipped.
			if !cfg.Full && c.h == anonymize.RemovalInsertion && key != "gnutella100" {
				row = append(row, "skipped")
				continue
			}
			g, err := dataset.GenerateByKey(key, cfg.Seed)
			if err != nil {
				return Table{}, err
			}
			out := ours(c.h, 1).run(g, c.L, theta, cfg.Seed, cfg.cellBudget())
			if out.Graph == nil {
				row = append(row, "-")
				continue
			}
			mark := ""
			if !out.Satisfied {
				mark = "*"
			}
			row = append(row, fmt.Sprintf("%.3f%s", out.Elapsed.Seconds(), mark))
			cfg.progress("  %s %s done", c.name, key)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note = "la=1; '*' = terminated without reaching theta; quick regime skips the costliest Rem-Ins cells"
	return t, nil
}

// acmSizes returns the ACM coauthorship scale sweep: the paper runs
// 1000..10000 vertices; the quick regime scales down (see "Scale
// substitution" in docs/ARCHITECTURE.md).
func (c Config) acmSizes() []int {
	if c.Full {
		return []int{1000, 2000, 3000, 4000}
	}
	return []int{200, 400, 600, 800}
}

// acmThetas returns the Figure 11/12 theta sweep (50%..90%).
func (c Config) acmThetas() []float64 {
	if c.Full {
		return []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	}
	return []float64{0.9, 0.7, 0.5}
}

// fig11: runtime of Edge Removal vs graph size on ACM-style
// coauthorship graphs for several theta.
func fig11(cfg Config) (Table, error) {
	t, err := acmSweep(cfg, func(out runOutcome, _ float64) string {
		return fmt.Sprintf("%.3f", out.Elapsed.Seconds())
	})
	t.Title = "Runtime (seconds) vs size, ACM coauthorship, Rem, L=1 (paper Fig. 11)"
	return t, err
}

// fig12: distortion of Edge Removal vs graph size, same sweep. The
// paper's headline: larger graphs reach the same privacy level with
// proportionally less distortion.
func fig12(cfg Config) (Table, error) {
	t, err := acmSweep(cfg, func(out runOutcome, d float64) string {
		return fmtPct(d)
	})
	t.Title = "Distortion vs size, ACM coauthorship, Rem, L=1 (paper Fig. 12)"
	return t, err
}

// acmSweep runs Edge Removal across the ACM size x theta grid and
// renders one cell per (size, theta) via render(out, distortion).
func acmSweep(cfg Config, render func(runOutcome, float64) string) (Table, error) {
	sizes := cfg.acmSizes()
	thetas := cfg.acmThetas()
	cols := []string{"vertices"}
	for _, theta := range thetas {
		cols = append(cols, "theta="+fmtPct(theta))
	}
	t := Table{Columns: cols}
	rem := ours(anonymize.Removal, 1)
	for _, n := range sizes {
		g := dataset.Generate(dataset.ACM(n), cfg.Seed)
		row := []string{fmt.Sprintf("%d", n)}
		for _, theta := range thetas {
			out := rem.run(g, 1, theta, cfg.Seed, cfg.cellBudget())
			if out.Graph == nil || !out.Satisfied {
				row = append(row, "-")
				continue
			}
			row = append(row, render(out, metrics.Distortion(g, out.Graph)))
		}
		t.Rows = append(t.Rows, row)
		cfg.progress("  n=%d done", n)
	}
	t.Note = "ACM stand-in generated at each size (paper crawls 10k authors; see docs/ARCHITECTURE.md, Scale substitution)"
	return t, nil
}
