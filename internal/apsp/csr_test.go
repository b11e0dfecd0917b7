package apsp

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

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

// TestCSRSweepZeroAllocs is the tentpole's steady-state guarantee: once
// the store and scratch exist, sweeping bounded BFS over every source —
// including the touched-only resets and the direct cell writes —
// performs zero allocations, on both backings.
func TestCSRSweepZeroAllocs(t *testing.T) {
	g := rmatGraph(t, 400, 1200, 1)
	c := g.Frozen()
	n := c.N()
	for _, kind := range []Kind{KindCompact, KindPacked} {
		m := NewStore(n, 3, kind)
		sc := newCSRScratch(n)
		allocs := testing.AllocsPerRun(5, func() {
			boundedCSRRange(c, 3, m, 0, n, sc)
		})
		if allocs != 0 {
			t.Errorf("%v: full CSR sweep allocates %.1f objects per run, want 0", kind, allocs)
		}
	}
}

// TestBoundedCSRMatchesBaseline: the CSR engine and the retained
// full-row baseline produce bit-identical stores.
func TestBoundedCSRMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := rmatGraph(t, 150, 450, seed)
		for L := 1; L <= 4; L++ {
			want := BoundedAPSPMapBaseline(g, L, KindCompact)
			if !Equal(BoundedAPSPKind(g, L, KindCompact), want) {
				t.Fatalf("seed %d L=%d: CSR engine disagrees with map baseline", seed, L)
			}
		}
	}
}

// TestRMATEnginesAgreeAcrossKinds is the cross-engine equivalence
// matrix on RMAT graphs: every engine, at both in-memory backings,
// plus the mapped view of the snapshot, describes the same capped
// distances.
func TestRMATEnginesAgreeAcrossKinds(t *testing.T) {
	dir := t.TempDir()
	for _, L := range []int{2, 3} {
		g := rmatGraph(t, 120, 360, int64(L))
		ref := BoundedAPSPMapBaseline(g, L, KindCompact)
		engines := map[string]func(k Kind) Store{
			"bfs":      func(k Kind) Store { return BoundedAPSPKind(g, L, k) },
			"parallel": func(k Kind) Store { return BoundedAPSPParallelKind(g, L, 4, k) },
			"fw":       func(k Kind) Store { return LPrunedFWKind(g, L, k) },
			"pointer":  func(k Kind) Store { return PointerFWKind(g, L, k) },
			"bitbfs":   func(k Kind) Store { return BitBFSKind(g, L, k) },
		}
		for name, build := range engines {
			for _, kind := range []Kind{KindCompact, KindPacked} {
				if m := build(kind); !Equal(m, ref) {
					t.Errorf("L=%d: engine %s kind %v disagrees with baseline", L, name, kind)
				}
			}
		}
		// Mapped view of the persisted snapshot, pairwise against the
		// same reference.
		data, err := MarshalStore(ref)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ref.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMappedStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(mapped, ref) {
			t.Errorf("L=%d: mapped view disagrees with its source store", L)
		}
		if !Equal(mapped.Clone(), ref) {
			t.Errorf("L=%d: mapped Clone disagrees with its source store", L)
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelCSRSharedSnapshotRace exercises, under -race, the
// concurrency the tentpole relies on: many goroutines reading one
// frozen CSR (striped builds) while each owns private scratch, plus
// concurrent whole builds of the same graph.
func TestParallelCSRSharedSnapshotRace(t *testing.T) {
	g := rmatGraph(t, 300, 900, 9)
	want := BoundedAPSPKind(g, 3, KindCompact)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			if m := BoundedAPSPParallelKind(g, 3, workers, KindCompact); !Equal(m, want) {
				t.Errorf("workers=%d: parallel build diverged", workers)
			}
		}(2 + i)
	}
	wg.Wait()
}

// TestAutoEngineSelectsParallelResult: EngineAuto with unset Workers is
// still bit-identical to the sequential build on either side of the
// auto-parallel threshold.
func TestAutoEngineSelectsParallelResult(t *testing.T) {
	small := rmatGraph(t, 200, 600, 4)
	if !Equal(Build(small, 3, BuildOptions{}), BoundedAPSPKind(small, 3, KindCompact)) {
		t.Error("auto engine diverged below the parallel threshold")
	}
	big := rmatGraph(t, autoParallelMinN+100, 3*(autoParallelMinN+100), 5)
	if !Equal(Build(big, 2, BuildOptions{}), BoundedAPSPKind(big, 2, KindCompact)) {
		t.Error("auto engine diverged above the parallel threshold")
	}
}
