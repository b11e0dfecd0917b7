package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/anonymize"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/kiso"
	"repro/internal/metrics"
)

func init() {
	register("ext-kiso", extKIso)
	register("ext-anneal", extAnneal)
	register("ext-centrality", extCentrality)
	register("ext-rmat", extRMAT)
}

// extKIso quantifies the paper's central positioning argument (Sections
// 1-2): total linkage protection via k-isomorphism (Cheng et al., SIGMOD
// 2010) versus short-linkage protection via L-opacity. For matched
// privacy (theta = 1/k against the degree adversary), it reports the
// distortion each method pays and what happens to connectivity.
func extKIso(cfg Config) (Table, error) {
	t := Table{
		Title: "Extension: L-opacity vs k-isomorphism (total linkage protection)",
		Columns: []string{"dataset", "k", "theta=1/k",
			"kiso distortion", "kiso components", "Rem distortion", "Rem components", "Rem maxConf"},
	}
	for _, key := range []string{"gnutella100", "enron100", "wikipedia100"} {
		g, err := dataset.GenerateByKey(key, cfg.Seed)
		if err != nil {
			return Table{}, err
		}
		for _, k := range []int{2, 4} {
			theta := 1 / float64(k)

			kres, err := kiso.Run(g, kiso.Options{K: k, Seed: cfg.Seed})
			if err != nil {
				return Table{}, err
			}
			if err := kiso.Verify(kres); err != nil {
				return Table{}, fmt.Errorf("ext-kiso: %s k=%d: %w", key, k, err)
			}
			_, kcomp := kres.Graph.ConnectedComponents()

			lres, err := anonymize.Run(g, anonymize.Options{
				L: 1, Theta: theta, Heuristic: anonymize.Removal,
				LookAhead: 1, Seed: cfg.Seed, Budget: cfg.cellBudget(),
			})
			if err != nil {
				return Table{}, err
			}
			_, lcomp := lres.Graph.ConnectedComponents()
			adv, err := attack.New(lres.Graph, g.Degrees())
			if err != nil {
				return Table{}, err
			}
			maxConf := adv.MaxConfidence(1).Confidence

			t.Rows = append(t.Rows, []string{
				key, fmt.Sprintf("%d", k), fmtPct(theta),
				fmtPct(kres.Distortion(g.M())), fmt.Sprintf("%d", kcomp),
				fmtPct(metrics.Distortion(g, lres.Graph)), fmt.Sprintf("%d", lcomp),
				fmtF(maxConf),
			})
		}
		cfg.progress("  %s done", key)
	}
	t.Note = "k-isomorphism buys stronger privacy by shattering the graph into k components; L-opacity reaches matched linkage confidence at a fraction of the edits while keeping the graph connected"
	return t, nil
}

// extAnneal compares the paper's greedy heuristics against this
// reproduction's simulated-annealing opacifier on distortion and
// runtime: the future-work question of whether global search beats
// greedy + look-ahead.
func extAnneal(cfg Config) (Table, error) {
	t := Table{
		Title: "Extension: greedy heuristics vs simulated annealing",
		Columns: []string{"dataset", "theta",
			"Rem dist", "Rem-Ins dist", "Anneal dist",
			"Rem time", "Rem-Ins time", "Anneal time"},
	}
	for _, key := range []string{"gnutella100", "enron100"} {
		g, err := dataset.GenerateByKey(key, cfg.Seed)
		if err != nil {
			return Table{}, err
		}
		for _, theta := range cfg.acmThetas() {
			type cell struct {
				dist string
				dur  time.Duration
			}
			run := func(f func() (anonymize.Result, error)) (cell, error) {
				best := cell{dist: "t/o"}
				for rep := 0; rep < cfg.reps(); rep++ {
					start := time.Now()
					res, err := f()
					if err != nil {
						return cell{}, err
					}
					d := time.Since(start)
					if rep == 0 || d < best.dur {
						best.dur = d
					}
					if res.Satisfied {
						dist := fmtPct(metrics.Distortion(g, res.Graph))
						if best.dist == "t/o" || dist < best.dist {
							best.dist = dist
						}
					}
				}
				return best, nil
			}
			rem, err := run(func() (anonymize.Result, error) {
				return anonymize.Run(g, anonymize.Options{
					L: 1, Theta: theta, Heuristic: anonymize.Removal,
					Seed: cfg.Seed, Budget: cfg.cellBudget(),
				})
			})
			if err != nil {
				return Table{}, err
			}
			remins, err := run(func() (anonymize.Result, error) {
				return anonymize.Run(g, anonymize.Options{
					L: 1, Theta: theta, Heuristic: anonymize.RemovalInsertion,
					Seed: cfg.Seed, Budget: cfg.cellBudget(),
				})
			})
			if err != nil {
				return Table{}, err
			}
			ann, err := run(func() (anonymize.Result, error) {
				return anonymize.Anneal(g, anonymize.AnnealOptions{
					L: 1, Theta: theta, Seed: cfg.Seed, Budget: cfg.cellBudget(),
				})
			})
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				key, fmtPct(theta),
				rem.dist, remins.dist, ann.dist,
				rem.dur.Round(time.Millisecond).String(),
				remins.dur.Round(time.Millisecond).String(),
				ann.dur.Round(time.Millisecond).String(),
			})
		}
		cfg.progress("  %s done", key)
	}
	t.Note = "annealing explores removals+insertions jointly; measured: the greedy heuristics dominate clearly at evaluation scale — the default schedule accepts many uphill edits it never pays back, so SA distortion is an order of magnitude worse"
	return t, nil
}

// extCentrality tracks how the two heuristics preserve vertex-importance
// structure (betweenness/closeness rank order) across the theta sweep —
// the abstract's "structural graph properties" beyond degree and
// clustering statistics.
func extCentrality(cfg Config) (Table, error) {
	t := Table{
		Title: "Extension: centrality preservation vs theta",
		Columns: []string{"dataset", "theta",
			"Rem btw-rho", "Rem-Ins btw-rho", "Rem close-rho", "Rem-Ins close-rho", "Rem top10", "Rem-Ins top10"},
	}
	for _, key := range []string{"enron100", "wikipedia100"} {
		g, err := dataset.GenerateByKey(key, cfg.Seed)
		if err != nil {
			return Table{}, err
		}
		for _, theta := range cfg.acmThetas() {
			var cp [2]metrics.CentralityPreservation
			for i, h := range []anonymize.Heuristic{anonymize.Removal, anonymize.RemovalInsertion} {
				res, err := anonymize.Run(g, anonymize.Options{
					L: 1, Theta: theta, Heuristic: h, Seed: cfg.Seed, Budget: cfg.cellBudget(),
				})
				if err != nil {
					return Table{}, err
				}
				cp[i] = metrics.Centralities(g, res.Graph)
			}
			t.Rows = append(t.Rows, []string{
				key, fmtPct(theta),
				fmtF(cp[0].BetweennessSpearman), fmtF(cp[1].BetweennessSpearman),
				fmtF(cp[0].ClosenessSpearman), fmtF(cp[1].ClosenessSpearman),
				fmtF(cp[0].TopTenOverlap), fmtF(cp[1].TopTenOverlap),
			})
		}
		cfg.progress("  %s done", key)
	}
	t.Note = "rank correlations against the original graph; preservation degrades as theta shrinks, and Rem preserves rank order better than Rem-Ins — inserted edges create new shortcuts that scramble betweenness more than removals do"
	return t, nil
}

// extRMAT probes the one documented calibration residual of the
// Table 3 stand-ins: the community generator under-disperses degree on
// the heavy-tailed web samples. For each such sample it reports the
// published degree STDD, the stand-in's, and a smoothed R-MAT graph's
// at the same (n, m) — showing the recursive-quadrant model recovers
// the crawl-like tail the default stand-in misses.
func extRMAT(cfg Config) (Table, error) {
	t := Table{
		Title:   "Extension: heavy-tail degree calibration (R-MAT vs community stand-in)",
		Columns: []string{"sample", "published STDD", "stand-in STDD", "R-MAT STDD", "stand-in maxdeg", "R-MAT maxdeg"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, key := range []string{"google100", "google500", "bs500", "wikipedia100"} {
		spec, ok := dataset.ByKey(key)
		if !ok {
			return Table{}, fmt.Errorf("ext-rmat: unknown sample %q", key)
		}
		standIn, err := dataset.GenerateByKey(key, cfg.Seed)
		if err != nil {
			return Table{}, err
		}
		rm, err := gen.RMAT(spec.N, spec.M, gen.WebRMAT(), rng)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			key,
			fmtF(spec.DegreeStdD),
			fmtF(metrics.Degrees(standIn).StdDev),
			fmtF(metrics.Degrees(rm).StdDev),
			fmt.Sprintf("%d", standIn.MaxDegree()),
			fmt.Sprintf("%d", rm.MaxDegree()),
		})
		cfg.progress("  %s done", key)
	}
	t.Note = "R-MAT closes the degree-dispersion gap on web-crawl samples; the default stand-ins keep the community structure (clustering) the anonymization trends depend on"
	return t, nil
}
