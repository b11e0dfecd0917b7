package apsp

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// rmatGraph generates a deterministic heavy-tailed test graph — the
// degree regime the CSR hot path is built for.
func rmatGraph(t testing.TB, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(n, m, gen.WebRMAT(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bfsOracle is the plain reference the sweep is checked against: one
// depth-L bounded BFS per source over the graph's own adjacency,
// scanning and resetting the full row and recording each pair through
// Set.
func bfsOracle(g *graph.Graph, L int) MutableStore {
	n := g.N()
	m := NewStore(n, L, KindFor(L))
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for j := range dist {
			dist[j] = -1
		}
		g.BoundedBFSInto(s, L, dist, queue)
		for j := s + 1; j < n; j++ {
			if d := dist[j]; d > 0 {
				m.Set(s, j, d)
			}
		}
	}
	return m
}

// asKind copies s into a heap store of the given backing.
func asKind(s Store, k Kind) MutableStore {
	m := NewStore(s.N(), s.L(), k)
	Copy(m, s)
	return m
}

// snapshotFile writes the L-capped store of g to path with the given
// payload kind: streamed when kind is the one KindFor(L) derives,
// marshalled from a copy otherwise.
func snapshotFile(t testing.TB, path string, g *graph.Graph, L int, kind Kind) {
	t.Helper()
	if kind == KindFor(L) {
		if err := BuildToFile(path, g, L, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := MarshalStore(asKind(build(g, L), kind))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// build is the sequential sweep.
func build(g *graph.Graph, L int) MutableStore { return Build(g, L, BuildOptions{Workers: 1}) }

// TestBuildByteIdentity is the one-sweep property: the heap build at
// every worker count, the streamed snapshot, and both of the paper's
// Floyd-Warshall algorithms copied into the derived backing serialize
// to the same bytes, on three generators, at sizes around the 64-source
// batch boundaries, and on the packed backing past MaxCompactL.
func TestBuildByteIdentity(t *testing.T) {
	gens := map[string]func(n int, rng *rand.Rand) *graph.Graph{
		"gnm": func(n int, rng *rand.Rand) *graph.Graph { return gen.GNM(n, min(2*n, n*(n-1)/2), rng) },
		"ba": func(n int, rng *rand.Rand) *graph.Graph {
			if n < 3 {
				return gen.GNM(n, 0, rng)
			}
			return gen.BarabasiAlbert(n, 3, 2, rng)
		},
		"rmat": func(n int, rng *rand.Rand) *graph.Graph {
			if n < 2 {
				return graph.New(n)
			}
			g, err := gen.RMAT(n, min(3*n, n*(n-1)/2), gen.WebRMAT(), rng)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	check := func(name string, g *graph.Graph, L int) {
		t.Helper()
		want, err := MarshalStore(asKind(LPrunedFW(g, L), KindFor(L)))
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := MarshalStore(asKind(PointerFW(g, L), KindFor(L)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ptr, want) {
			t.Fatalf("%s L=%d: PointerFW differs from LPrunedFW", name, L)
		}
		for _, w := range []int{1, 2, 4} {
			got, err := MarshalStore(Build(g, L, BuildOptions{Workers: w}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s L=%d w=%d: Build differs from LPrunedFW", name, L, w)
			}
			var buf bytes.Buffer
			if err := StreamBuild(&buf, g, L, BuildOptions{Workers: w}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s L=%d w=%d: StreamBuild differs from LPrunedFW", name, L, w)
			}
		}
	}
	for gname, mk := range gens {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 129, 300} {
			g := mk(n, rand.New(rand.NewSource(int64(n)+7)))
			for _, L := range []int{0, 1, 2, 3, 5} {
				check(fmt.Sprintf("%s/n=%d", gname, n), g, L)
			}
		}
	}
	g := gens["rmat"](129, rand.New(rand.NewSource(3)))
	if KindFor(MaxCompactL+1) != KindPacked {
		t.Fatal("KindFor(MaxCompactL+1) is not packed")
	}
	check("rmat/n=129/packed", g, MaxCompactL+1)
}

// TestSweepAllocsFlatInN: a build's allocations — snapshot, store, and
// per-worker scratch — are a fixed count; nothing in the per-batch or
// per-level loops allocates, so the count does not grow with n.
func TestSweepAllocsFlatInN(t *testing.T) {
	allocs := func(n, L int) float64 {
		g := rmatGraph(t, n, 3*n, int64(n))
		return testing.AllocsPerRun(3, func() { build(g, L) })
	}
	for _, L := range []int{3, MaxCompactL + 1} {
		small, large := allocs(200, L), allocs(1000, L)
		if large != small {
			t.Errorf("L=%d: build allocates %.0f objects at n=200 but %.0f at n=1000", L, small, large)
		}
	}
}

// TestBoundedCSRMatchesBaseline: the sweep over the frozen CSR matches
// the per-source bounded BFS over the graph's own adjacency.
func TestBoundedCSRMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := rmatGraph(t, 150, 450, seed)
		for L := 1; L <= 4; L++ {
			if !Equal(build(g, L), bfsOracle(g, L)) {
				t.Fatalf("seed %d L=%d: sweep disagrees with per-source BFS", seed, L)
			}
		}
	}
}

// TestRMATEnginesAgreeAcrossKinds is the cross-engine equivalence
// matrix on RMAT graphs: the sweep and the oracles, copied into both
// heap backings, plus the paged view of the snapshot, describe the
// same capped distances.
func TestRMATEnginesAgreeAcrossKinds(t *testing.T) {
	dir := t.TempDir()
	for _, L := range []int{2, 3} {
		g := rmatGraph(t, 120, 360, int64(L))
		ref := bfsOracle(g, L)
		engines := map[string]func() Store{
			"sweep":    func() Store { return build(g, L) },
			"parallel": func() Store { return Build(g, L, BuildOptions{Workers: 4}) },
			"fw":       func() Store { return LPrunedFW(g, L) },
			"pointer":  func() Store { return PointerFW(g, L) },
		}
		for name, run := range engines {
			m := run()
			for _, kind := range []Kind{KindCompact, KindPacked} {
				if !Equal(asKind(m, kind), ref) {
					t.Errorf("L=%d: engine %s kind %v disagrees with the oracle", L, name, kind)
				}
			}
		}
		// Paged view of the persisted snapshot, pairwise against the
		// same reference.
		data, err := MarshalStore(ref)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ref.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paged, err := OpenPagedStore(path, NewPageCache(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(paged, ref) {
			t.Errorf("L=%d: paged view disagrees with its source store", L)
		}
		if !Equal(paged.Clone(), ref) {
			t.Errorf("L=%d: paged Clone disagrees with its source store", L)
		}
		if err := paged.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelCSRSharedSnapshotRace exercises, under -race, the
// concurrency the sweep relies on: workers reading one frozen CSR
// while each owns private scratch and writes its own batches' cells,
// plus concurrent whole builds of the same graph.
func TestParallelCSRSharedSnapshotRace(t *testing.T) {
	g := rmatGraph(t, 300, 900, 9)
	want := build(g, 3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			if m := Build(g, 3, BuildOptions{Workers: workers}); !Equal(m, want) {
				t.Errorf("workers=%d: parallel build diverged", workers)
			}
		}(2 + i)
	}
	wg.Wait()
}

// TestAutoEngineSelectsParallelResult: unset Workers is still
// bit-identical to the sequential build on either side of the
// auto-parallel threshold.
func TestAutoEngineSelectsParallelResult(t *testing.T) {
	small := rmatGraph(t, 200, 600, 4)
	if !Equal(Build(small, 3, BuildOptions{}), bfsOracle(small, 3)) {
		t.Error("auto build diverged below the parallel threshold")
	}
	big := rmatGraph(t, autoParallelMinN+100, 3*(autoParallelMinN+100), 5)
	if !Equal(Build(big, 2, BuildOptions{}), build(big, 2)) {
		t.Error("auto build diverged above the parallel threshold")
	}
}

func TestParallelAgreesOnFigure1(t *testing.T) {
	g := fixture.Figure1()
	for L := 1; L <= 4; L++ {
		ref := build(g, L)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			if m := Build(g, L, BuildOptions{Workers: workers}); !Equal(m, ref) {
				t.Errorf("L=%d workers=%d: parallel disagrees with sequential", L, workers)
			}
		}
	}
}

func TestParallelTrivialGraphs(t *testing.T) {
	four := BuildOptions{Workers: 4}
	if m := Build(graph.New(0), 2, four); m.N() != 0 {
		t.Fatal("empty graph mishandled")
	}
	if m := Build(graph.New(1), 2, four); m.N() != 1 {
		t.Fatal("single vertex mishandled")
	}
	if m := Build(graph.New(5), 3, four); CountWithin(m) != 0 {
		t.Fatal("edgeless graph has pairs within L")
	}
}

func TestParallelQuickMatchesSequential(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, wRaw uint8) bool {
		n := 2 + int(nRaw%200)
		p := 0.02 + float64(pRaw%30)/100
		workers := 2 + int(wRaw%6)
		g := randomGraph(n, p, seed)
		for _, L := range []int{1, 3} {
			if !Equal(Build(g, L, BuildOptions{Workers: workers}), build(g, L)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitBFSAgreesOnFigure1(t *testing.T) {
	g := fixture.Figure1()
	for L := 1; L <= 4; L++ {
		ref := FromClassic(ClassicFW(g), L)
		if m := build(g, L); !Equal(m, ref) {
			t.Errorf("L=%d: the bit-parallel sweep disagrees with classic FW", L)
		}
	}
}

func TestBitBFSEmptyAndTrivialGraphs(t *testing.T) {
	if m := build(graph.New(0), 2); m.N() != 0 {
		t.Fatal("empty graph mishandled")
	}
	g := graph.New(5) // no edges: everything Far
	m := build(g, 3)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if m.Get(i, j) != m.Far() {
				t.Fatalf("edgeless graph: d(%d,%d)=%d, want Far", i, j, m.Get(i, j))
			}
		}
	}
	if m := build(fixture.Figure1(), 0); CountWithin(m) != 0 {
		t.Fatal("L=0 must report no pairs within range")
	}
}

// The sweep batches sources in words of 64; graphs larger than one word
// and graphs exactly at the boundary exercise the batch loop and the
// in-batch source mask.
func TestBitBFSWordBoundarySizes(t *testing.T) {
	for _, n := range []int{63, 64, 65, 130} {
		g := randomGraph(n, 0.05, int64(n))
		for _, L := range []int{1, 2, 3} {
			if m := build(g, L); !Equal(m, bfsOracle(g, L)) {
				t.Errorf("n=%d L=%d: the sweep disagrees with per-source BFS", n, L)
			}
		}
	}
}

func TestBitBFSQuickAgreesWithBounded(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, lRaw uint8) bool {
		n := 2 + int(nRaw%150)
		p := 0.02 + float64(pRaw%30)/100
		L := 1 + int(lRaw%4)
		g := randomGraph(n, p, seed)
		return Equal(build(g, L), bfsOracle(g, L))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildSequential(b *testing.B) {
	g := randomGraph(500, 0.02, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(g, 2)
	}
}

func BenchmarkBuildParallel4(b *testing.B) {
	g := randomGraph(500, 0.02, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(g, 2, BuildOptions{Workers: 4})
	}
}
