package anonymize

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// buildSeedStore returns a prebuilt distance store of the fixture graph
// for seeding runs through Options.Distances.
func buildSeedStore(g *graph.Graph, L int) apsp.Store {
	return apsp.Build(g, L, apsp.BuildOptions{})
}

// TestSeededRunMatchesFreshBuild: seeding through Options.Distances
// (now an overlay over the caller's store) commits exactly the same
// edges as building from scratch — for every read-only backing the
// serving layer might hand over: heap and paged.
func TestSeededRunMatchesFreshBuild(t *testing.T) {
	g := storeTestGraph()
	opts := Options{
		L: 2, Theta: 0.4, Heuristic: RemovalInsertion, LookAhead: 2, Seed: 7,
	}
	want, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	heap := buildSeedStore(g, opts.L)
	path := t.TempDir() + "/seed.store"
	if err := apsp.BuildToFile(path, g, opts.L, apsp.BuildOptions{}); err != nil {
		t.Fatal(err)
	}

	paged, err := apsp.OpenPagedStore(path, apsp.NewPageCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	seeds := map[string]apsp.Store{
		"heap":    heap,
		"paged":   paged,
		"overlay": apsp.NewOverlay(heap),
	}
	for name, seed := range seeds {
		o := opts
		o.Distances = seed
		got, err := Run(g, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameEdges(want.Removed, got.Removed) || !sameEdges(want.Inserted, got.Inserted) {
			t.Errorf("%s-seeded run chose different edges:\nfresh: -%v +%v\nseed:  -%v +%v",
				name, want.Removed, want.Inserted, got.Removed, got.Inserted)
		}
		if want.FinalLO != got.FinalLO || want.Steps != got.Steps {
			t.Errorf("%s-seeded run summary diverges: %+v vs %+v", name, want, got)
		}
	}
	// The shared seed store must be untouched by all of those runs.
	if !apsp.Equal(heap, buildSeedStore(g, opts.L)) {
		t.Fatal("a seeded run mutated the shared Distances store")
	}
}

// TestSeedStoreNotClonedUpFront is the satellite fix pinned as a test:
// a run that never commits a move (theta already satisfied, or
// cancelled before the first iteration) must not materialize an
// O(n²/2) copy of the seed store. With n = 2000 the old deep clone
// cost ~2 MB; the overlay path allocates O(1) for the seed and only a
// bounded number of allocations for the run state overall.
func TestSeedStoreNotClonedUpFront(t *testing.T) {
	const n = 2000
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	seed := buildSeedStore(g, 2)
	triangleBytes := int64(n) * int64(n-1) / 2

	cases := map[string]func() error{
		// Theta 1 is satisfied before the first candidate scan: the loop
		// exits at its head without ever writing the store.
		"theta-satisfied": func() error {
			_, err := Run(g, Options{L: 2, Theta: 1, Distances: seed, Seed: 1})
			return err
		},
		// A context cancelled before the run starts stops at the first
		// interrupt poll — again, zero mutations.
		"cancelled": func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := RunContext(ctx, g, Options{L: 2, Theta: 0, Distances: seed, Seed: 1})
			return err
		},
		// An already-exhausted wall-clock budget latches TimedOut between
		// iterations before any move is chosen.
		"budget-exhausted": func() error {
			_, err := Run(g, Options{L: 2, Theta: 0, Distances: seed, Seed: 1, Budget: time.Nanosecond})
			return err
		},
	}
	for name, run := range cases {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&ms1)
		allocated := int64(ms1.TotalAlloc - ms0.TotalAlloc)
		// The run legitimately allocates the cloned graph, tracker, and
		// scratch (all O(n + m)); the triangle is ~2 MB and the O(n)
		// state well under half of it. Anything near triangleBytes means
		// the deep clone is back.
		if allocated > triangleBytes/2 {
			t.Errorf("%s: no-mutation run allocated %d bytes (triangle is %d) — seed store deep-cloned up front?",
				name, allocated, triangleBytes)
		}
	}

	// And per the satellite's letter: the overlay construction itself is
	// allocation-bounded — a handful of descriptors, nothing O(n²).
	allocs := testing.AllocsPerRun(10, func() {
		o := apsp.NewOverlay(seed)
		_ = o.Get(0, 1)
	})
	if allocs > 10 {
		t.Errorf("NewOverlay allocates %v objects per run, want O(1)", allocs)
	}
}

// TestSeededAnnealMatchesFreshBuild: the annealer flows through the
// same newState seeding, so it must be overlay-invariant too.
func TestSeededAnnealMatchesFreshBuild(t *testing.T) {
	g := storeTestGraph()
	opts := AnnealOptions{L: 2, Theta: 0.4, Seed: 5, Steps: 300}
	want, err := Anneal(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Distances = buildSeedStore(g, opts.L)
	got, err := Anneal(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Graph.Equal(got.Graph) || want.Steps != got.Steps || want.FinalLO != got.FinalLO {
		t.Errorf("seeded anneal diverges: steps %d vs %d, LO %v vs %v",
			want.Steps, got.Steps, want.FinalLO, got.FinalLO)
	}
}
