package registry

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apsp"
)

// TestMappedWarmRestart is the acceptance path for zero-copy
// hydration: a registry rebooted with MappedStores serves its first
// Distances call from the memory-mapped snapshot — store_misses stays
// zero, no APSP build, answers identical to the cold build.
func TestMappedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()

	r1 := New(Config{Dir: dir})
	g1, _, err := r1.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := g1.Store(3)

	r2 := New(Config{Dir: dir, MappedStores: true})
	g2, ok := r2.Get(g1.ID())
	if !ok {
		t.Fatalf("mapped restart lost graph %s", g1.ID())
	}
	st2, reused := g2.Store(3)
	if !reused {
		t.Fatal("mapped restart rebuilt the store")
	}
	if _, isMapped := st2.(*apsp.MappedStore); !isMapped {
		t.Fatalf("hydrated store is %T, want *apsp.MappedStore", st2)
	}
	if !apsp.Equal(st1, st2) {
		t.Fatal("mapped store differs from the one persisted")
	}
	stats := r2.Stats()
	if stats.StoreMisses != 0 || stats.StoreHits != 1 || stats.Builds != 0 {
		t.Fatalf("mapped restart stats: hits=%d misses=%d builds=%d, want 1/0/0",
			stats.StoreHits, stats.StoreMisses, stats.Builds)
	}
	if stats.Persist.StoresLoaded != 1 || stats.Persist.Quarantined != 0 {
		t.Fatalf("persist stats %+v, want 1 store loaded, none quarantined", stats.Persist)
	}
	// The request-level "mapped" spelling folds onto the same slot.
	if _, ok := g2.CachedDistances(3); !ok {
		t.Fatal("kind=mapped request missed the hydrated compact slot")
	}
}

// TestMappedRestartQuarantinesCorrupt: a damaged snapshot must not
// hydrate; it is set aside exactly as in the heap-decode path.
func TestMappedRestartQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()
	r1 := New(Config{Dir: dir})
	g1, _, err := r1.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g1.Store(2)

	var storePath string
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if filepath.Ext(f.Name()) == storeSuffix {
			storePath = filepath.Join(dir, f.Name())
		}
	}
	if storePath == "" {
		t.Fatal("no store snapshot written")
	}
	if err := os.Truncate(storePath, 10); err != nil {
		t.Fatal(err)
	}

	r2 := New(Config{Dir: dir, MappedStores: true})
	stats := r2.Stats()
	if stats.Persist.StoresLoaded != 0 || stats.Persist.Quarantined != 1 {
		t.Fatalf("corrupt mapped boot: %+v, want 0 loaded / 1 quarantined", stats.Persist)
	}
}

// TestBuildTimingStats: every cold build increments Builds and feeds
// the millisecond aggregates; cache hits do not.
func TestBuildTimingStats(t *testing.T) {
	n, edges := persistGraphEdges()
	r := New(Config{})
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(2)
	g.Store(3)
	g.Store(2) // hit
	stats := r.Stats()
	if stats.Builds != 2 {
		t.Fatalf("Builds = %d, want 2", stats.Builds)
	}
	if stats.BuildMSTotal < 0 || stats.BuildMSMax < 0 || stats.BuildMSMax > stats.BuildMSTotal {
		t.Fatalf("timing aggregates inconsistent: total=%d max=%d", stats.BuildMSTotal, stats.BuildMSMax)
	}
}
