package anonymize

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// checkCacheAgainstRecompute brings the removal cache up to date and
// compares every candidate's cached deltas with a from-scratch
// RemovalDelta on the current graph, and the candidate list with the
// original edges minus the removed ones.
func checkCacheAgainstRecompute(t *testing.T, s *state, orig *graph.Graph, name string) {
	t.Helper()
	s.refreshRemovalDeltas()
	var want []graph.Edge
	for _, e := range orig.Edges() {
		if !slices.Contains(s.removedLog, e) {
			want = append(want, e)
		}
	}
	if !slices.Equal(s.cands.edges, want) {
		t.Fatalf("%s step %d: candidates %v, want %v", name, s.steps, s.cands.edges, want)
	}
	sc := apsp.NewScratch(s.g.N())
	deltas := make([]int, s.tr.Types().NumTypes())
	var changes []opacity.PairChange
	var fresh []opacity.TypeDelta
	for i, e := range s.cands.edges {
		changes = appendRemovalChanges(changes[:0], s.g, s.m, e, sc)
		fresh = s.tr.AppendTypeDeltas(fresh[:0], changes, deltas)
		if got := s.cands.deltas(i); !slices.Equal(got, fresh) {
			t.Fatalf("%s step %d: candidate %v cached %v, recomputed %v", name, s.steps, e, got, fresh)
		}
	}
}

// TestRemovalCacheMatchesRecompute runs both heuristics with every
// step's cache checked against a full recomputation, over GNM and
// Barabási–Albert graphs, L 1–4, look-ahead 1–2 and Workers 1 and 4.
func TestRemovalCacheMatchesRecompute(t *testing.T) {
	runs := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs := map[string]*graph.Graph{
			"gnm": gen.GNM(24+rng.Intn(12), 40+rng.Intn(20), rng),
			"ba":  gen.BarabasiAlbert(24+rng.Intn(12), 3, 2, rng),
		}
		for _, kind := range []string{"gnm", "ba"} {
			g := graphs[kind]
			for L := 1; L <= 4; L++ {
				for _, h := range []Heuristic{Removal, RemovalInsertion} {
					for la := 1; la <= 2; la++ {
						for _, w := range []int{1, 4} {
							name := fmt.Sprintf("%s/seed%d/L%d/%v/la%d/w%d", kind, seed, L, h, la, w)
							opts := Options{L: L, Heuristic: h, LookAhead: la, Workers: w, Seed: seed, MaxSteps: 6}
							s, err := newState(context.Background(), g, opts)
							if err != nil {
								t.Fatal(err)
							}
							s.opts.Trace = func(Step) { checkCacheAgainstRecompute(t, s, g, name) }
							if h == Removal {
								s.runRemoval()
							} else {
								s.runRemovalInsertion()
							}
							runs++
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs checked", runs)
}

// TestWarmRemovalScanAllocFree: once the cache's arenas and the lane
// scratch have grown, a removal scan — stale-candidate recomputation,
// arena rebuild and evaluation of every candidate — allocates nothing.
func TestWarmRemovalScanAllocFree(t *testing.T) {
	g, err := dataset.GenerateByKey("epinions100", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newState(context.Background(), g, Options{L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := s.chooseRemovalCombo(s.tr.Evaluate())[0]
	s.applyRemoval(e)
	s.chooseRemovalCombo(s.tr.Evaluate())
	allocs := testing.AllocsPerRun(20, func() {
		// Invalidate around the last commit again, so every run
		// recomputes the same stale candidates.
		s.cands.stampAround(s.g, s.cands.edges[0])
		s.bestSingleRemoval()
	})
	if allocs != 0 {
		t.Fatalf("warm removal scan allocates %v times", allocs)
	}
}

// greedyPool is the perfbench greedy workload's shape: 21 epinions100
// samples, each with its prebuilt L=2 distance store.
func greedyPool(tb testing.TB) ([]*graph.Graph, []apsp.Store) {
	tb.Helper()
	spec, _ := dataset.ByKey("epinions100")
	rng := rand.New(rand.NewSource(1))
	var graphs []*graph.Graph
	var stores []apsp.Store
	for i := 0; i < 21; i++ {
		g := dataset.Generate(spec, rng.Int63())
		graphs = append(graphs, g)
		stores = append(stores, apsp.Build(g, 2, apsp.BuildOptions{}))
	}
	return graphs, stores
}

// BenchmarkGreedyOp runs the greedy workload's op in-process: Rem to
// completion (θ = 0) at L = 2 on each pool graph, seeded through a
// copy-on-write overlay of the graph's prebuilt store, one graph per
// iteration. It reports the share of candidate evaluations whose
// removal deltas had to be recomputed.
func BenchmarkGreedyOp(b *testing.B) {
	graphs, stores := greedyPool(b)
	var evals, recomputed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(graphs)
		s, err := newState(context.Background(), graphs[k], Options{L: 2, Seed: int64(k), Distances: stores[k]})
		if err != nil {
			b.Fatal(err)
		}
		res := s.runRemoval()
		evals += res.CandidateEvals
		recomputed += s.cands.recomputed
	}
	b.ReportMetric(float64(recomputed)/float64(evals), "recomputed/eval")
}
