package experiments

import (
	"fmt"
	"time"

	"repro/internal/anonymize"
	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

func init() {
	register("ablation-tiebreak", ablationTiebreak)
	register("ablation-engines", ablationEngines)
	register("ablation-lookahead", ablationLookahead)
}

// ablationTiebreak quantifies the contribution of the paper's secondary
// tie-break criterion (prefer the move minimizing N(lo), the number of
// types attaining the maximum opacity) by running Edge Removal with and
// without it.
func ablationTiebreak(cfg Config) (Table, error) {
	t := Table{
		Title:   "Ablation: N(lo) tie-break criterion (paper Section 5.2)",
		Columns: []string{"dataset", "theta", "distortion with N(lo)", "distortion without", "steps with", "steps without"},
	}
	for _, key := range []string{"enron100", "gnutella100", "wikipedia100"} {
		g, err := dataset.GenerateByKey(key, cfg.Seed)
		if err != nil {
			return Table{}, err
		}
		for _, theta := range cfg.acmThetas() {
			var cells [2]anonymize.Result
			for i, ignore := range []bool{false, true} {
				res, err := anonymize.Run(g, anonymize.Options{
					L: 1, Theta: theta, Heuristic: anonymize.Removal,
					LookAhead: 1, Seed: cfg.Seed, IgnorePopulation: ignore,
				})
				if err != nil {
					return Table{}, err
				}
				cells[i] = res
			}
			t.Rows = append(t.Rows, []string{
				key, fmtPct(theta),
				fmtPct(metrics.Distortion(g, cells[0].Graph)),
				fmtPct(metrics.Distortion(g, cells[1].Graph)),
				fmt.Sprintf("%d", cells[0].Steps),
				fmt.Sprintf("%d", cells[1].Steps),
			})
		}
		cfg.progress("  %s done", key)
	}
	t.Note = "Edge Removal, L=1, la=1; the paper argues fewer max-opacity types is the better greedy signal"
	return t, nil
}

// ablationEngines times the build every serving path uses — the
// bit-parallel sweep of apsp.Build — against the paper's Algorithms 2
// and 3 on identical inputs, and checks that all three agree.
func ablationEngines(cfg Config) (Table, error) {
	t := Table{
		Title:   "Ablation: distance-engine build time (paper Algorithms 2 & 3)",
		Columns: []string{"dataset", "L", "Build (bit-parallel sweep)", "L-pruned FW (Alg.2)", "Pointer FW (Alg.3)", "agree"},
	}
	keys := []string{"gnutella100", "enron100", "google100", "gnutella500"}
	if cfg.Full {
		keys = append(keys, "google500", "gnutella1000")
	}
	for _, key := range keys {
		g, err := dataset.GenerateByKey(key, cfg.Seed)
		if err != nil {
			return Table{}, err
		}
		for _, L := range []int{1, 2, 4} {
			build := func(f func() apsp.Store) (time.Duration, apsp.Store) {
				start := time.Now()
				m := f()
				return time.Since(start), m
			}
			dBFS, mBFS := build(func() apsp.Store { return apsp.Build(g, L, apsp.BuildOptions{Workers: 1}) })
			dFW, mFW := build(func() apsp.Store { return apsp.LPrunedFW(g, L) })
			dPtr, mPtr := build(func() apsp.Store { return apsp.PointerFW(g, L) })
			agree := apsp.Equal(mBFS, mFW) && apsp.Equal(mFW, mPtr)
			t.Rows = append(t.Rows, []string{
				key, fmt.Sprintf("%d", L),
				dBFS.String(), dFW.String(), dPtr.String(),
				fmt.Sprintf("%v", agree),
			})
		}
		cfg.progress("  %s done", key)
	}
	t.Note = "one full matrix build per engine; the sweep packs 64 sources per word; greedy loops additionally use incremental deltas"
	return t, nil
}

// ablationLookahead measures what the look-ahead mechanism buys:
// feasibility and distortion at la = 1, 2, 3 on a dense sample where
// single-edge moves stall (the paper's Berkeley-Stanford argument).
func ablationLookahead(cfg Config) (Table, error) {
	t := Table{
		Title:   "Ablation: look-ahead depth (paper Section 5)",
		Columns: []string{"dataset", "heuristic", "theta", "la=1", "la=2", "la=3"},
	}
	maxLA := 3
	key := "wikipedia100"
	g, err := dataset.GenerateByKey(key, cfg.Seed)
	if err != nil {
		return Table{}, err
	}
	for _, h := range []anonymize.Heuristic{anonymize.Removal, anonymize.RemovalInsertion} {
		for _, theta := range cfg.acmThetas() {
			row := []string{key, h.String(), fmtPct(theta)}
			for la := 1; la <= maxLA; la++ {
				res, err := anonymize.Run(g, anonymize.Options{
					L: 1, Theta: theta, Heuristic: h, LookAhead: la, Seed: cfg.Seed,
				})
				if err != nil {
					return Table{}, err
				}
				if !res.Satisfied {
					row = append(row, "-")
					continue
				}
				row = append(row, fmtPct(metrics.Distortion(g, res.Graph)))
			}
			t.Rows = append(t.Rows, row)
		}
		cfg.progress("  %s done", h)
	}
	t.Note = "cells are distortion of the la-variant; '-' = infeasible at that look-ahead"
	return t, nil
}
