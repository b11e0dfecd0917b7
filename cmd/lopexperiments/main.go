// Command lopexperiments regenerates the tables and figures of the
// paper's evaluation (Section 6). Each experiment prints an aligned
// text table whose rows match the paper's plotted series; see
// docs/ARCHITECTURE.md#scale-substitution for how the runs stand in for
// the paper's inputs and sweeps.
//
// Usage:
//
//	lopexperiments -list
//	lopexperiments -run fig6a
//	lopexperiments -run all -full -csv out/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	var (
		run  = flag.String("run", "", "experiment id, or 'all'")
		list = flag.Bool("list", false, "list experiment ids and exit")
		full = flag.Bool("full", false, "run the paper-scale sweep (slow) instead of the quick regime")
		reps = flag.Int("reps", 3, "repetitions per cell (paper uses 10)")
		seed = flag.Int64("seed", 1, "experiment seed")
		csv  = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "lopexperiments: -run <id>|all is required (use -list for ids)")
		os.Exit(2)
	}

	cfg := experiments.Config{Seed: *seed, Repetitions: *reps, Full: *full, Out: os.Stderr}
	if err := execute(*run, cfg, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "lopexperiments:", err)
		os.Exit(1)
	}
}

func execute(id string, cfg experiments.Config, csvDir string) error {
	var tables []experiments.Table
	if id == "all" {
		ts, err := experiments.RunAll(cfg)
		if err != nil {
			return err
		}
		tables = ts
	} else {
		t, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		tables = []experiments.Table{t}
	}
	for _, t := range tables {
		fmt.Println(t.String())
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, t.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
