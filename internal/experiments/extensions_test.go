package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The trade-off the experiment exists to demonstrate: on every dataset
// row, k-isomorphism pays strictly more distortion than Edge Removal at
// the matched confidence target, and shatters the graph into at least k
// components.
func TestExtKIsoTradeoffShape(t *testing.T) {
	tab, err := Run("ext-kiso", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	pct := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad percent cell %q: %v", s, err)
		}
		return v
	}
	for _, row := range tab.Rows {
		k, _ := strconv.Atoi(row[1])
		kisoDist, remDist := pct(row[3]), pct(row[5])
		if kisoDist <= remDist {
			t.Errorf("%s k=%d: kiso distortion %v%% <= Rem %v%%; expected the opposite", row[0], k, kisoDist, remDist)
		}
		comps, _ := strconv.Atoi(row[4])
		if comps < k {
			t.Errorf("%s k=%d: only %d components after k-iso", row[0], k, comps)
		}
		conf, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("bad confidence cell %q", row[7])
		}
		theta := pct(row[2]) / 100
		if conf > theta+1e-9 {
			t.Errorf("%s k=%d: Rem left maxConf %v > theta %v", row[0], k, conf, theta)
		}
	}
}

func TestExtAnnealRuns(t *testing.T) {
	cfg := fastCfg()
	tab, err := Run("ext-anneal", cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(cfg.acmThetas()) // two datasets
	if len(tab.Rows) != wantRows {
		t.Fatalf("rows=%d, want %d", len(tab.Rows), wantRows)
	}
	for _, row := range tab.Rows {
		for i, cell := range row {
			if cell == "" {
				t.Fatalf("empty cell %d in %v", i, row)
			}
		}
	}
}

func TestExtCentralityShape(t *testing.T) {
	cfg := fastCfg()
	tab, err := Run("ext-centrality", cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(cfg.acmThetas())
	if len(tab.Rows) != wantRows {
		t.Fatalf("rows=%d, want %d", len(tab.Rows), wantRows)
	}
	for _, row := range tab.Rows {
		for i, cell := range row {
			if cell == "" {
				t.Fatalf("empty cell %d in %v", i, row)
			}
		}
	}
}

// ext-rmat exists to demonstrate one claim: the R-MAT stand-in spreads
// degree more than the community stand-in on every heavy-tail sample,
// closing the documented Table 3 residual.
func TestExtRMATClosesDispersionGap(t *testing.T) {
	tab, err := Run("ext-rmat", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		published, _ := strconv.ParseFloat(row[1], 64)
		standIn, _ := strconv.ParseFloat(row[2], 64)
		rmat, _ := strconv.ParseFloat(row[3], 64)
		if !(rmat > standIn) {
			t.Errorf("%s: R-MAT STDD %v not above stand-in %v", row[0], rmat, standIn)
		}
		if !(standIn < published) {
			t.Errorf("%s: stand-in STDD %v not below published %v — residual gone?", row[0], standIn, published)
		}
	}
}
