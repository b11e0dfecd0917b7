package registry

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apsp"
)

// TestPagedConfigValidation: the paged mode's preconditions surface at
// startup, not as silent misbehavior later.
func TestPagedConfigValidation(t *testing.T) {
	if err := (Config{PagedStores: true}).Validate(); err == nil {
		t.Error("PagedStores without Dir validated")
	}
	if err := (Config{StoreBudgetBytes: -1}).Validate(); err == nil {
		t.Error("negative store budget validated")
	}
	if err := (Config{Dir: t.TempDir(), PagedStores: true, StoreBudgetBytes: 1 << 20}).Validate(); err != nil {
		t.Errorf("valid paged config rejected: %v", err)
	}
}

// TestBuildThroughToFile: with paged residency a COLD build streams
// straight into its snapshot file and is served as a paged view from
// the first request — the write-through copy is not a separate
// post-build marshal.
func TestBuildThroughToFile(t *testing.T) {
	n, edges := persistGraphEdges()
	oracle := func() apsp.Store {
		r := New(Config{})
		g, _, err := r.Put(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := g.Store(2)
		return st
	}()

	dir := t.TempDir()
	r := New(Config{Dir: dir, PagedStores: true, StoreBudgetBytes: 1 << 20})
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	st, reused := g.Store(2)
	if reused {
		t.Fatal("cold build reported reuse")
	}
	if _, ok := st.(*apsp.PagedStore); !ok {
		t.Fatalf("cold build served %T, want *apsp.PagedStore", st)
	}
	if !apsp.Equal(oracle, st) {
		t.Fatal("build-through store differs from heap oracle")
	}
	if _, err := os.Stat(filepath.Join(dir, storeFile(g.ID(), 2))); err != nil {
		t.Fatalf("snapshot file missing after build-through: %v", err)
	}
	stats := r.Stats()
	if stats.Persist.StoreWrites != 1 || stats.Persist.WriteErrors != 0 {
		t.Fatalf("persist counters %+v, want exactly one clean store write", stats.Persist)
	}
	if stats.Builds != 1 || stats.StoreMisses != 1 {
		t.Fatalf("builds=%d misses=%d, want 1/1", stats.Builds, stats.StoreMisses)
	}
}

// TestPagedWarmRestart is the acceptance path for budgeted hydration:
// a registry rebooted with PagedStores serves its first Distances call
// through the page cache — builds and store_misses stay zero, answers
// identical to the cold build.
func TestPagedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()

	r1 := New(Config{Dir: dir})
	g1, _, err := r1.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := g1.Store(3)

	r2 := New(Config{Dir: dir, PagedStores: true, StoreBudgetBytes: 1 << 20})
	g2, ok := r2.Get(g1.ID())
	if !ok {
		t.Fatalf("paged restart lost graph %s", g1.ID())
	}
	st2, reused := g2.Store(3)
	if !reused {
		t.Fatal("paged restart rebuilt the store")
	}
	if _, isPaged := st2.(*apsp.PagedStore); !isPaged {
		t.Fatalf("hydrated store is %T, want *apsp.PagedStore", st2)
	}
	if !apsp.Equal(st1, st2) {
		t.Fatal("paged store differs from the one persisted")
	}
	stats := r2.Stats()
	if stats.StoreMisses != 0 || stats.StoreHits != 1 || stats.Builds != 0 {
		t.Fatalf("paged restart stats: hits=%d misses=%d builds=%d, want 1/0/0",
			stats.StoreHits, stats.StoreMisses, stats.Builds)
	}
	if stats.PageCache.BudgetBytes != 1<<20 {
		t.Fatalf("page cache budget = %d, want %d", stats.PageCache.BudgetBytes, 1<<20)
	}
	// Equal above walked every cell, so pages must be resident and
	// within budget.
	if stats.PageCache.ResidentBytes <= 0 || stats.PageCache.ResidentBytes > stats.PageCache.BudgetBytes {
		t.Fatalf("resident %d bytes outside (0, budget=%d]",
			stats.PageCache.ResidentBytes, stats.PageCache.BudgetBytes)
	}
	// The request-level "paged" spelling folds onto the same slot.
	if _, ok := g2.CachedDistances(3); !ok {
		t.Fatal("kind=paged request missed the hydrated compact slot")
	}
}

// TestPagedEvictionKeepsFile: LRU eviction of a paged store reclaims
// its cache pages but must NOT delete the snapshot file — the file is
// the store's backing (a request may still hold the view) and the warm
// source for the next boot. Heap evictions keep deleting.
func TestPagedEvictionKeepsFile(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()
	r := New(Config{Dir: dir, PagedStores: true, MaxStoresPerGraph: 1, StoreBudgetBytes: 1 << 20})
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := g.Store(2)
	ps, ok := first.(*apsp.PagedStore)
	if !ok {
		t.Fatalf("cold paged build served %T", first)
	}
	ps.Get(0, 1) // fault at least one page in
	g.Store(3)

	k2 := 2
	if _, err := os.Stat(filepath.Join(dir, storeFile(g.ID(), k2))); err != nil {
		t.Fatalf("eviction deleted the paged store's snapshot: %v", err)
	}
	if rb := ps.ResidentBytes(); rb != 0 {
		t.Fatalf("evicted paged store still pins %d cache bytes", rb)
	}
	// The evicted view keeps answering off the surviving file.
	if d := ps.Get(0, 1); d < 1 {
		t.Fatalf("evicted paged store returned %d", d)
	}
	if ev := r.Stats().StoreEvictions; ev != 1 {
		t.Fatalf("StoreEvictions = %d, want 1", ev)
	}
}

// TestPagedRestartQuarantinesCorrupt: a damaged snapshot must not
// hydrate at a paged boot; it is set aside exactly as in the
// heap-decode path.
func TestPagedRestartQuarantinesCorrupt(t *testing.T) {
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

	r2 := New(Config{Dir: dir, PagedStores: true})
	stats := r2.Stats()
	if stats.Persist.StoresLoaded != 0 || stats.Persist.Quarantined != 1 {
		t.Fatalf("corrupt paged boot: %+v, want 0 loaded / 1 quarantined", stats.Persist)
	}
}

// TestCrashMidStreamingBuildQuarantine: a partial .tmp- snapshot left
// by a crash mid-streaming-build is quarantined at the next boot —
// never hydrated, never silently discarded — and the store rebuilds
// cleanly through a fresh file afterwards.
func TestCrashMidStreamingBuildQuarantine(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()
	r1 := New(Config{Dir: dir})
	g1, _, err := r1.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the crash artifact: a truncated store payload under the
	// temp name a streaming build would have used.
	k := 2
	partial := filepath.Join(dir, tmpPrefix+storeFile(g1.ID(), k))
	if err := os.WriteFile(partial, []byte("LOPS-partial-sweep"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := New(Config{Dir: dir, PagedStores: true, StoreBudgetBytes: 1 << 20})
	stats := r2.Stats()
	if stats.Persist.Quarantined != 1 {
		t.Fatalf("boot quarantined %d files, want 1 (the partial build)", stats.Persist.Quarantined)
	}
	if _, err := os.Stat(partial + corruptSuffix); err != nil {
		t.Fatalf("partial build not set aside as corrupt: %v", err)
	}
	if stats.Persist.StoresLoaded != 0 {
		t.Fatalf("boot loaded %d stores from a partial-only dir, want 0", stats.Persist.StoresLoaded)
	}

	// The graph survived; the next request rebuilds through a fresh file.
	g2, ok := r2.Get(g1.ID())
	if !ok {
		t.Fatal("graph lost alongside the partial store")
	}
	st, reused := g2.Store(2)
	if reused {
		t.Fatal("rebuild after quarantine reported reuse")
	}
	if _, ok := st.(*apsp.PagedStore); !ok {
		t.Fatalf("rebuild served %T, want *apsp.PagedStore", st)
	}
	if _, err := os.Stat(filepath.Join(dir, storeFile(g1.ID(), k))); err != nil {
		t.Fatalf("rebuild did not land a fresh snapshot: %v", err)
	}
}

// TestStatsStoreBytes: the per-backing byte gauges tell heap and paged
// deployments apart — heap triangles live in StoreBytes,
// file-backed ones in StoreFileBytes with paged heap residency bounded
// by the page budget.
func TestStatsStoreBytes(t *testing.T) {
	n, edges := persistGraphEdges()
	triangle := int64(n) * int64(n-1) / 2

	heap := New(Config{})
	gh, _, err := heap.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	gh.Store(2)
	hs := heap.Stats()
	if hs.StoreBytes["compact"] != triangle {
		t.Fatalf("heap StoreBytes[compact] = %d, want %d", hs.StoreBytes["compact"], triangle)
	}
	if total := sumBytes(hs.StoreFileBytes); total != 0 {
		t.Fatalf("heap deployment reports %d file bytes", total)
	}

	paged := New(Config{Dir: t.TempDir(), PagedStores: true, StoreBudgetBytes: 1 << 20})
	gp, _, err := paged.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := gp.Store(2)
	st.Get(0, 1) // make at least one page resident
	ps := paged.Stats()
	wantFile := int64(22) + triangle // storeHeaderLen + compact payload
	if ps.StoreFileBytes["paged"] != wantFile {
		t.Fatalf("paged StoreFileBytes = %d, want %d", ps.StoreFileBytes["paged"], wantFile)
	}
	if hb := ps.StoreBytes["paged"]; hb <= 0 || hb > ps.PageCache.BudgetBytes {
		t.Fatalf("paged StoreBytes = %d, want resident pages within budget %d", hb, ps.PageCache.BudgetBytes)
	}
	if len(ps.StoreBytes) != 1 || ps.StoreBytes["compact"] != 0 {
		t.Fatalf("paged deployment leaks heap backings into StoreBytes: %v", ps.StoreBytes)
	}
}

func sumBytes(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}
