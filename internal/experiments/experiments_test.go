package experiments

import (
	"strings"
	"testing"
)

// fastCfg is a minimal configuration used to exercise every runner in
// tests without paying the full quick-regime sweep.
func fastCfg() Config {
	return Config{Seed: 1, Repetitions: 1}
}

func TestIDsStableAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"ablation-engines", "ablation-lookahead", "ablation-tiebreak",
		"ext-anneal", "ext-centrality", "ext-kiso", "ext-rmat",
		"fig10", "fig11", "fig12",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6g", "fig6h",
		"fig7a", "fig7b",
		"fig8a", "fig8b", "fig8c",
		"fig9",
		"motivation",
		"spectral",
		"table1", "table2", "table3",
		"thm1",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs() = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs()[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", fastCfg()); err == nil {
		t.Fatal("Run(nope) succeeded, want error")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3"} {
		tab, err := Run(id, fastCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		if tab.ID != id {
			t.Fatalf("%s: table.ID = %q", id, tab.ID)
		}
	}
}

func TestTable1HasSevenDatasets(t *testing.T) {
	tab, err := Run("table1", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("table1 has %d rows, want 7", len(tab.Rows))
	}
}

func TestThm1(t *testing.T) {
	tab, err := Run("thm1", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("thm1 rows = %d, want >= 4", len(tab.Rows))
	}
	// The paper's running example is satisfiable; its removal set must
	// opacify the gadget.
	row := tab.Rows[0]
	if row[0] != "paper example" || row[6] != "true" || row[8] != "true" {
		t.Fatalf("paper example row = %v", row)
	}
	// The 8-clause enumeration over 3 variables is unsatisfiable.
	if tab.Rows[1][6] != "false" {
		t.Fatalf("unsatisfiable core row = %v", tab.Rows[1])
	}
}

func TestDistortionSweepShape(t *testing.T) {
	cfg := fastCfg()
	tab, err := Run("fig6e", cfg) // epinions-trust100, L=2, ours only: small and fast
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tab.Columns), 1+4; got != want {
		t.Fatalf("columns = %d, want %d", got, want)
	}
	if got, want := len(tab.Rows), len(cfg.thetas()); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if cell != "-" && !strings.HasSuffix(cell, "%") {
				t.Fatalf("cell %q is neither '-' nor a percentage", cell)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "two,three"}},
		Note:    "n",
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "note: n") {
		t.Fatalf("String() = %q", s)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"two,three"`) {
		t.Fatalf("CSV() = %q: comma cell not quoted", csv)
	}
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("CSV() header = %q", csv)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Repetitions != 3 || cfg.Seed != 1 {
		t.Fatalf("DefaultConfig() = %+v", cfg)
	}
	if n := len(cfg.thetas()); n != 4 {
		t.Fatalf("quick thetas = %d, want 4", n)
	}
	cfg.Full = true
	if n := len(cfg.thetas()); n != 9 {
		t.Fatalf("full thetas = %d, want 9", n)
	}
	zero := Config{}
	if zero.reps() != 1 {
		t.Fatalf("zero reps() = %d, want 1", zero.reps())
	}
}

func TestAblationEnginesAgree(t *testing.T) {
	tab, err := Run("ablation-engines", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("engines disagree on %v", row)
		}
	}
}

func TestMotivationShape(t *testing.T) {
	tab, err := Run("motivation", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 2 datasets x 3 graphs
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		label := row[1]
		confL2 := row[4]
		switch {
		case label == "raw":
			if confL2 != "100.0%" {
				t.Fatalf("raw graph linkage confidence = %s, want 100%%", confL2)
			}
		case strings.HasPrefix(label, "2-opaque"):
			// Bounded by theta = 50% (allowing exact attainment).
			if confL2 != "50.0%" && !strings.HasPrefix(confL2, "4") &&
				!strings.HasPrefix(confL2, "3") && !strings.HasPrefix(confL2, "2") &&
				!strings.HasPrefix(confL2, "1") && confL2 != "0.0%" {
				t.Fatalf("opacified linkage confidence = %s, want <= 50%%", confL2)
			}
		}
	}
}

func TestSpectralShape(t *testing.T) {
	tab, err := Run("spectral", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty spectral table")
	}
	for _, row := range tab.Rows {
		if len(row) != 7 {
			t.Fatalf("row width %d, want 7: %v", len(row), row)
		}
	}
}
