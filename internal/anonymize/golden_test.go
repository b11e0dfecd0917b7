package anonymize

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_choices.json from the current code")

const goldenPath = "testdata/golden_choices.json"

// goldenCase is one pinned configuration of the greedy heuristics.
type goldenCase struct {
	Name    string
	Graph   string
	Options Options
	Overlay bool // seed through Options.Distances instead of building
}

// goldenRecord is the recorded outcome of one goldenCase: every choice
// the run made, the final opacity (as exact float bits), and the
// candidate-evaluation count.
type goldenRecord struct {
	Removed        [][2]int `json:"removed"`
	Inserted       [][2]int `json:"inserted"`
	FinalLO        float64  `json:"final_lo"`
	FinalLOBits    uint64   `json:"final_lo_bits"`
	Steps          int      `json:"steps"`
	CandidateEvals int64    `json:"candidate_evals"`
}

// goldenGraphs are the fixtures of the golden choices test: two seeded
// paper samples and one WebRMAT graph.
func goldenGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, key := range []string{"epinions100", "gnutella100"} {
		g, err := dataset.GenerateByKey(key, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = g
	}
	rmat, err := gen.RMAT(150, 450, gen.WebRMAT(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	out["rmat150"] = rmat
	return out
}

// goldenCases spans L ∈ {1,2,3}, θ ∈ {0, 0.5}, look-ahead ∈ {1,2}, Rem
// and Rem-Ins, Workers ∈ {1,4}, and heap vs overlay seeding. Step caps
// keep the expensive corners (θ=0, look-ahead 2, Rem-Ins insertion
// scans) bounded.
func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(graphKey string, o Options, overlay bool) {
		seed := "heap"
		if overlay {
			seed = "overlay"
		}
		name := fmt.Sprintf("%s/%v/L%d/theta%v/la%d/w%d/%s/steps%d",
			graphKey, o.Heuristic, o.L, o.Theta, o.LookAhead, o.Workers, seed, o.MaxSteps)
		cases = append(cases, goldenCase{Name: name, Graph: graphKey, Options: o, Overlay: overlay})
	}
	for _, key := range []string{"epinions100", "gnutella100"} {
		// Enough steps that single moves stop improving and the
		// look-ahead combination search runs.
		laSteps := 40
		if key == "gnutella100" {
			laSteps = 8
		}
		for _, L := range []int{1, 2, 3} {
			for _, theta := range []float64{0, 0.5} {
				for _, workers := range []int{1, 4} {
					add(key, Options{L: L, Theta: theta, Heuristic: Removal, LookAhead: 1, Seed: 1, Workers: workers}, workers == 4)
				}
				add(key, Options{L: L, Theta: theta, Heuristic: Removal, LookAhead: 2, Seed: 3, MaxSteps: laSteps}, L == 2)
				add(key, Options{L: L, Theta: theta, Heuristic: RemovalInsertion, LookAhead: 1, Seed: 5, MaxSteps: 3, Workers: 4}, L != 2)
			}
		}
		add(key, Options{L: 2, Theta: 0.5, Heuristic: RemovalInsertion, LookAhead: 2, Seed: 9, MaxSteps: 2}, true)
	}
	for _, L := range []int{2, 3} {
		add("rmat150", Options{L: L, Theta: 0, Heuristic: Removal, LookAhead: 1, Seed: 1, MaxSteps: 6}, false)
		add("rmat150", Options{L: L, Theta: 0, Heuristic: Removal, LookAhead: 1, Seed: 1, MaxSteps: 6, Workers: 4}, true)
	}
	add("rmat150", Options{L: 2, Theta: 0.5, Heuristic: RemovalInsertion, LookAhead: 1, Seed: 2, MaxSteps: 2, Workers: 4}, true)
	return cases
}

func runGolden(t *testing.T, graphs map[string]*graph.Graph, c goldenCase) goldenRecord {
	t.Helper()
	g := graphs[c.Graph]
	o := c.Options
	if c.Overlay {
		o.Distances = apsp.Build(g, o.L, apsp.BuildOptions{})
	}
	res, err := Run(g, o)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	pairs := func(es []graph.Edge) [][2]int {
		out := make([][2]int, len(es))
		for i, e := range es {
			out[i] = [2]int{e.U, e.V}
		}
		return out
	}
	return goldenRecord{
		Removed:        pairs(res.Removed),
		Inserted:       pairs(res.Inserted),
		FinalLO:        res.FinalLO,
		FinalLOBits:    math.Float64bits(res.FinalLO),
		Steps:          res.Steps,
		CandidateEvals: res.CandidateEvals,
	}
}

// TestGoldenChoices pins the heuristics' every choice to a recorded
// run: the removal and insertion logs, FinalLO bit for bit, and the
// CandidateEvals count must match testdata/golden_choices.json across
// the whole configuration matrix. Any kernel or graph-layer rewrite
// must leave these outcomes untouched. Regenerate (only for a
// deliberate behaviour change) with
//
//	go test ./internal/anonymize -run TestGoldenChoices -update-golden
func TestGoldenChoices(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix runs every heuristic configuration")
	}
	graphs := goldenGraphs(t)
	cases := goldenCases()
	got := make(map[string]goldenRecord, len(cases))
	for _, c := range cases {
		got[c.Name] = runGolden(t, graphs, c)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, matrix has %d", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("%s: missing from golden file", c.Name)
			continue
		}
		g := got[c.Name]
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if string(wj) != string(gj) {
			t.Errorf("%s: outcome diverges from golden\nwant %s\ngot  %s", c.Name, wj, gj)
		}
	}
}

// TestLookAheadTrialCommitsAllocFree: the look-ahead search trial-
// commits and undoes every size-2 combination, reusing one change
// buffer per depth, so its allocations stay a small constant per
// search instead of one change list per trial.
func TestLookAheadTrialCommitsAllocFree(t *testing.T) {
	g, err := dataset.GenerateByKey("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newState(context.Background(), g, Options{L: 2, LookAhead: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	candidates := s.cands.edges[:40]
	s.searchCombos(candidates, 2) // grow the per-depth buffers
	allocs := testing.AllocsPerRun(3, func() { s.searchCombos(candidates, 2) })
	trials := len(candidates) * (len(candidates) - 1) / 2
	if allocs > 8 {
		t.Fatalf("searchCombos over %d trials allocates %v times per search", trials, allocs)
	}
	if err := s.g.Validate(); err != nil || !s.g.Equal(g) {
		t.Fatalf("trial commits did not restore the graph: %v", err)
	}
}
