// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is a named runner producing a
// Table of rows matching the paper's plotted series; each runner's title
// names the paper artifact it reproduces, and "Scale substitution" in
// docs/ARCHITECTURE.md records how the stand-ins and sweep sizes
// differ from the paper's.
//
// Experiments run on the calibrated synthetic dataset stand-ins of
// internal/dataset. By default they run in a scaled "quick" regime
// (smaller samples, fewer theta points, fewer repetitions) sized for a
// laptop; Full mode reproduces the paper's sweep parameters.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Seed drives dataset generation and heuristic tie-breaking.
	Seed int64
	// Repetitions per (dataset, theta) cell; the paper repeats each
	// experiment 10 times and keeps the minimum-distortion run.
	Repetitions int
	// Full switches from the scaled quick regime to the paper's full
	// sweep (larger samples, 10%-step theta sweep, no per-run wall-clock
	// budget); expect long runs.
	Full bool
	// CellBudget bounds each individual heuristic run's wall clock in
	// the quick regime; 0 selects the 15-second default. Full mode
	// ignores it. Runs over budget are reported as "t/o" cells.
	CellBudget time.Duration
	// Out, when non-nil, receives progress lines.
	Out io.Writer
}

// DefaultConfig returns the quick-regime configuration used by tests,
// benchmarks, and the CLI default.
func DefaultConfig() Config {
	return Config{Seed: 1, Repetitions: 3}
}

func (c Config) progress(format string, args ...interface{}) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// thetas returns the confidence sweep: the paper's 90%..10% in 10% steps
// in Full mode, a four-point subset in quick mode.
func (c Config) thetas() []float64 {
	if c.Full {
		return []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	}
	return []float64{0.9, 0.7, 0.5, 0.3}
}

// cellBudget returns the per-run wall-clock bound: unlimited in Full
// mode, CellBudget (default 15s) in the quick regime.
func (c Config) cellBudget() time.Duration {
	if c.Full {
		return 0
	}
	if c.CellBudget > 0 {
		return c.CellBudget
	}
	return 15 * time.Second
}

// reps returns the repetition count (>=1).
func (c Config) reps() int {
	if c.Repetitions < 1 {
		return 1
	}
	return c.Repetitions
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Note records caveats (scaled sizes, substitutions, failures).
	Note string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing
// commas are quoted).
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Runner produces one experiment's table.
type Runner func(Config) (Table, error)

// registry maps experiment IDs to runners; populated by init functions
// in the per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	start := time.Now()
	cfg.progress("running %s ...", id)
	t, err := r(cfg)
	if err != nil {
		return Table{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	cfg.progress("done %s in %v", id, time.Since(start).Round(time.Millisecond))
	t.ID = id
	return t, nil
}

// RunAll executes every registered experiment in ID order.
func RunAll(cfg Config) ([]Table, error) {
	var out []Table
	for _, id := range IDs() {
		t, err := Run(id, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// fmtF renders a float with sensible precision for tables.
func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
