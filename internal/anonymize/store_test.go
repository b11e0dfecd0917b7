package anonymize

import (
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// storeTestGraph is a small graph with enough structure that both
// heuristics commit several moves before satisfying theta.
func storeTestGraph() *graph.Graph {
	g := graph.New(12)
	edges := [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
		{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 0},
		{1, 5}, {3, 7}, {2, 8}, {4, 10},
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// storeIn builds the L-capped store of g and copies it into the given
// heap backing, so a run can be seeded from either.
func storeIn(g *graph.Graph, L int, kind apsp.Kind) apsp.Store {
	m := apsp.NewStore(g.N(), L, kind)
	apsp.Copy(m, apsp.Build(g, L, apsp.BuildOptions{}))
	return m
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAnonymizerIdenticalAcrossStores is the top-of-stack cross-store
// guarantee: a run on the compact uint8 store commits exactly the same
// edges, in the same order, as a run seeded from the packed int32
// store — at every worker count, for both heuristics and the annealer.
func TestAnonymizerIdenticalAcrossStores(t *testing.T) {
	for _, h := range []Heuristic{Removal, RemovalInsertion} {
		for _, workers := range []int{1, 8} {
			var results []Result
			for _, kind := range []apsp.Kind{apsp.KindCompact, apsp.KindPacked} {
				res, err := Run(storeTestGraph(), Options{
					L: 2, Theta: 0.4, Heuristic: h, LookAhead: 2,
					Seed: 7, Workers: workers, Distances: storeIn(storeTestGraph(), 2, kind),
				})
				if err != nil {
					t.Fatalf("%v workers=%d store=%v: %v", h, workers, kind, err)
				}
				results = append(results, res)
			}
			a, b := results[0], results[1]
			if !sameEdges(a.Removed, b.Removed) || !sameEdges(a.Inserted, b.Inserted) {
				t.Errorf("%v workers=%d: stores chose different edges:\ncompact: -%v +%v\npacked:  -%v +%v",
					h, workers, a.Removed, a.Inserted, b.Removed, b.Inserted)
			}
			if a.Steps != b.Steps || a.FinalLO != b.FinalLO || a.Satisfied != b.Satisfied {
				t.Errorf("%v workers=%d: run summaries diverge: %+v vs %+v", h, workers, a, b)
			}
			if !a.Graph.Equal(b.Graph) {
				t.Errorf("%v workers=%d: published graphs differ across stores", h, workers)
			}
		}
	}
}

// TestAnnealerIdenticalAcrossStores: the Metropolis path shares the
// same incremental state and must be store-invariant too.
func TestAnnealerIdenticalAcrossStores(t *testing.T) {
	var results []Result
	for _, kind := range []apsp.Kind{apsp.KindCompact, apsp.KindPacked} {
		res, err := Anneal(storeTestGraph(), AnnealOptions{
			L: 2, Theta: 0.4, Seed: 5, Steps: 400, Distances: storeIn(storeTestGraph(), 2, kind),
		})
		if err != nil {
			t.Fatalf("store=%v: %v", kind, err)
		}
		results = append(results, res)
	}
	a, b := results[0], results[1]
	if !a.Graph.Equal(b.Graph) || a.Steps != b.Steps || a.FinalLO != b.FinalLO {
		t.Errorf("annealer diverges across stores: steps %d vs %d, LO %v vs %v",
			a.Steps, b.Steps, a.FinalLO, b.FinalLO)
	}
}

// TestEngineChoiceDoesNotChangeRun: the sweep and the paper's two
// Floyd-Warshall algorithms yield the same distance store, so a run
// seeded from any of them follows the trajectory of a run that builds
// its own.
func TestEngineChoiceDoesNotChangeRun(t *testing.T) {
	opts := Options{L: 2, Theta: 0.4, Heuristic: RemovalInsertion, LookAhead: 1, Seed: 3}
	ref, err := Run(storeTestGraph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(*graph.Graph, int) apsp.MutableStore{
		"fw": apsp.LPrunedFW, "pointer": apsp.PointerFW,
	} {
		opts.Distances = build(storeTestGraph(), 2)
		res, err := Run(storeTestGraph(), opts)
		if err != nil {
			t.Fatalf("engine=%s: %v", name, err)
		}
		if !sameEdges(ref.Removed, res.Removed) || !sameEdges(ref.Inserted, res.Inserted) {
			t.Errorf("engine=%s chose different edges than the sweep", name)
		}
	}
}

// TestTrackerCountsIdenticalAcrossStores pins the middle layer: a
// Tracker built from a compact store reports the same per-type counts
// as one built from a packed store.
func TestTrackerCountsIdenticalAcrossStores(t *testing.T) {
	g := storeTestGraph()
	types := opacity.NewDegreeTypes(g.Degrees())
	for _, L := range []int{1, 2, 3} {
		tc := opacity.NewTracker(types, storeIn(g, L, apsp.KindCompact))
		tp := opacity.NewTracker(types, storeIn(g, L, apsp.KindPacked))
		for id := 0; id < types.NumTypes(); id++ {
			if tc.Count(id) != tp.Count(id) {
				t.Errorf("L=%d type %d: compact count %d != packed count %d",
					L, id, tc.Count(id), tp.Count(id))
			}
		}
		if tc.Evaluate() != tp.Evaluate() {
			t.Errorf("L=%d: evaluations diverge: %+v vs %+v", L, tc.Evaluate(), tp.Evaluate())
		}
	}
}
