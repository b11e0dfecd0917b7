package registry

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apsp"
	"repro/internal/dataset"
)

// persistGraph is a small fixed test graph (a 6-cycle plus a chord).
func persistGraphEdges() (int, [][2]int) {
	return 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {1, 4}}
}

// TestPersistWarmRestart: a second registry over the same directory
// recovers the graph and its built store, and serves the first
// Distances call as a hit — zero APSP builds after a restart.
func TestPersistWarmRestart(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()

	r1 := New(Config{Dir: dir})
	g1, created, err := r1.Put(n, edges)
	if err != nil || !created {
		t.Fatalf("Put: created=%v err=%v", created, err)
	}
	st1, reused := g1.Store(3)
	if reused {
		t.Fatal("first Distances call reported reuse")
	}
	if _, err := os.Stat(filepath.Join(dir, graphFile(g1.ID()))); err != nil {
		t.Fatalf("graph snapshot not written: %v", err)
	}

	r2 := New(Config{Dir: dir})
	if r2.Len() != 1 {
		t.Fatalf("restarted registry holds %d graphs, want 1", r2.Len())
	}
	g2, ok := r2.Get(g1.ID())
	if !ok {
		t.Fatalf("restarted registry lost graph %s", g1.ID())
	}
	st2, reused := g2.Store(3)
	if !reused {
		t.Fatal("first Distances call after restart rebuilt the store")
	}
	if !apsp.Equal(st1, st2) {
		t.Fatal("recovered store differs from the one persisted")
	}
	stats := r2.Stats()
	if stats.StoreMisses != 0 || stats.StoreHits != 1 {
		t.Fatalf("restart stats: hits=%d misses=%d, want 1/0", stats.StoreHits, stats.StoreMisses)
	}
	if p := stats.Persist; !p.Enabled || p.GraphsLoaded != 1 || p.StoresLoaded != 1 || p.Quarantined != 0 {
		t.Fatalf("persist stats %+v, want enabled with 1 graph and 1 store loaded", p)
	}
}

// TestPersistDeleteRemovesFiles: DELETE (and LRU eviction) must not
// leave snapshots behind, or deleted graphs would resurrect on boot.
func TestPersistDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()
	r := New(Config{Dir: dir})
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(2)
	if !r.Delete(g.ID()) {
		t.Fatal("Delete reported the graph missing")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		names := make([]string, 0, len(left))
		for _, e := range left {
			names = append(names, e.Name())
		}
		t.Fatalf("snapshots left after delete: %v", names)
	}
	if New(Config{Dir: dir}).Len() != 0 {
		t.Fatal("deleted graph resurrected on reboot")
	}
}

// TestPersistStoreEvictionRemovesFile: the per-graph store LRU deletes
// the snapshot of whatever it displaces.
func TestPersistStoreEvictionRemovesFile(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()
	r := New(Config{Dir: dir, MaxStoresPerGraph: 1})
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(2)
	evicted := storeFile(g.ID(), 2)
	if _, err := os.Stat(filepath.Join(dir, evicted)); err != nil {
		t.Fatalf("first store snapshot missing: %v", err)
	}
	g.Store(3) // displaces L=2
	if _, err := os.Stat(filepath.Join(dir, evicted)); !os.IsNotExist(err) {
		t.Fatalf("evicted store snapshot still on disk (err=%v)", err)
	}
}

// TestPersistQuarantinesCorruptFiles: boot-time load must skip — and
// set aside — every kind of bad file without failing startup, while
// still loading the good ones alongside.
func TestPersistQuarantinesCorruptFiles(t *testing.T) {
	n, edges := persistGraphEdges()

	// Build one valid graph + store snapshot pair to corrupt.
	seedDir := t.TempDir()
	seed := New(Config{Dir: seedDir})
	g, _, err := seed.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(3)
	goodGraph, err := os.ReadFile(filepath.Join(seedDir, graphFile(g.ID())))
	if err != nil {
		t.Fatal(err)
	}
	storeName := storeFile(g.ID(), 3)
	goodStore, err := os.ReadFile(filepath.Join(seedDir, storeName))
	if err != nil {
		t.Fatal(err)
	}
	otherID := strings.Repeat("ab", 32)
	// A packed snapshot of the L=2 store: valid cells, but not the
	// backing L=2 derives.
	st2, _ := g.Store(2)
	packed2 := apsp.NewStore(st2.N(), 2, apsp.KindPacked)
	apsp.Copy(packed2, st2)
	packedStore, err := apsp.MarshalStore(packed2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		file string
		data []byte
	}{
		{"truncated graph", graphFile(otherID), goodGraph[:len(goodGraph)-3]},
		{"bad graph magic", graphFile(otherID), append([]byte("XXXX"), goodGraph[4:]...)},
		{"digest mismatch", graphFile(otherID), goodGraph}, // valid bytes, wrong filename id
		{"unparseable store name", "nonsense.store", goodStore},
		{"orphan store", storeFile(otherID, 3), goodStore},
		{"kind mismatch", storeFile(g.ID(), 2), packedStore},
		{"corrupt store payload", storeFile(g.ID(), 2), goodStore[:10]},
		{"store dimension lie", storeFile(g.ID(), 5), goodStore}, // claims L=5, holds L=3
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, graphFile(g.ID())), goodGraph, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, storeName), goodStore, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			r := New(Config{Dir: dir})
			stats := r.Stats().Persist
			if stats.GraphsLoaded != 1 || stats.StoresLoaded != 1 {
				t.Fatalf("good snapshots not loaded alongside %s: %+v", tc.name, stats)
			}
			if stats.Quarantined != 1 {
				t.Fatalf("quarantined=%d, want 1 for %s", stats.Quarantined, tc.name)
			}
			if _, err := os.Stat(filepath.Join(dir, tc.file+corruptSuffix)); err != nil {
				t.Fatalf("%s not renamed aside: %v", tc.name, err)
			}
			// The quarantined file must not be re-counted on reboot.
			if again := New(Config{Dir: dir}).Stats().Persist; again.Quarantined != 0 {
				t.Fatalf("reboot after quarantine still sees %d bad files", again.Quarantined)
			}
		})
	}
}

// TestPersistCapacitySkipLeavesStores: graphs (and their stores)
// beyond the capacity bound are left on disk untouched — NOT
// quarantined — so a later boot with a larger -graphs recovers them
// warm.
func TestPersistCapacitySkipLeavesStores(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Dir: dir})
	n, edges := persistGraphEdges()
	g1, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := r.Put(n, edges[:len(edges)-1])
	if err != nil {
		t.Fatal(err)
	}
	g1.Store(2)
	g2.Store(2)

	small := New(Config{Dir: dir, MaxGraphs: 1})
	ps := small.Stats().Persist
	if ps.GraphsLoaded != 1 || ps.StoresLoaded != 1 {
		t.Fatalf("capacity-1 boot loaded %d graphs / %d stores, want 1/1", ps.GraphsLoaded, ps.StoresLoaded)
	}
	if ps.Quarantined != 0 {
		t.Fatalf("capacity-1 boot quarantined %d valid snapshots", ps.Quarantined)
	}
	// The skipped graph's snapshots must still be intact for a roomier
	// boot.
	full := New(Config{Dir: dir})
	ps = full.Stats().Persist
	if ps.GraphsLoaded != 2 || ps.StoresLoaded != 2 || ps.Quarantined != 0 {
		t.Fatalf("roomy reboot stats %+v, want both graphs and stores back", ps)
	}
}

// TestCachedDistancesNeverBuilds: the peeking lookup reports absent on
// a cold cache (no build, no miss counted) and hits once Distances has
// built.
func TestCachedDistancesNeverBuilds(t *testing.T) {
	r := New(Config{})
	n, edges := persistGraphEdges()
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.CachedDistances(2); ok {
		t.Fatal("cold cache reported a store")
	}
	if s := r.Stats(); s.StoreMisses != 0 || s.StoreHits != 0 || s.Stores != 0 {
		t.Fatalf("peek perturbed counters: %+v", s)
	}
	want, _ := g.Store(2)
	got, ok := g.CachedDistances(2)
	if !ok || !apsp.Equal(want, got) {
		t.Fatal("warm cache peek did not return the built store")
	}
	if s := r.Stats(); s.StoreHits != 1 {
		t.Fatalf("warm peek counted %d hits, want 1", s.StoreHits)
	}
}

// TestPersistQuarantinesTempFiles: a temp file left by a crash
// mid-write (or mid-streaming-build) is set aside as *.corrupt at
// boot — never loaded, never silently deleted — and a later boot does
// not quarantine the already-quarantined copy again.
func TestPersistQuarantinesTempFiles(t *testing.T) {
	dir := t.TempDir()
	leftover := filepath.Join(dir, tmpPrefix+"whatever.graph")
	if err := os.WriteFile(leftover, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Config{Dir: dir})
	if r.Len() != 0 {
		t.Fatal("temp leftover was loaded")
	}
	if q := r.Stats().Persist.Quarantined; q != 1 {
		t.Fatalf("boot quarantined %d files, want 1", q)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("temp leftover still present (err=%v)", err)
	}
	if _, err := os.Stat(leftover + corruptSuffix); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	// A second boot must leave the quarantined file exactly where it is.
	r2 := New(Config{Dir: dir})
	if q := r2.Stats().Persist.Quarantined; q != 0 {
		t.Fatalf("re-boot quarantined %d files, want 0", q)
	}
	if _, err := os.Stat(leftover + corruptSuffix); err != nil {
		t.Fatalf("quarantined copy disturbed by re-boot: %v", err)
	}
}

// TestPersistFailedWriteRemovesTemp: a snapshot write whose rename
// fails (a directory holds the graph's final name) counts one write
// error and leaves no temp file behind.
func TestPersistFailedWriteRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	n, edges := persistGraphEdges()
	canonical, err := Canonicalize(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{Dir: dir})
	if err := os.Mkdir(filepath.Join(dir, graphFile(Digest(n, canonical))), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Put(n, edges); err != nil {
		t.Fatal(err)
	}
	if p := r.Stats().Persist; p.WriteErrors != 1 || p.GraphWrites != 0 {
		t.Fatalf("persist stats %+v, want one write error and no graph write", p)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("failed write left temp file %s", e.Name())
		}
	}
}

// TestParseStoreFileRoundTrip: the filename codec inverts itself, and
// the legacy engine/kind spelling still parses, reporting whether its
// kind is the one L derives.
func TestParseStoreFileRoundTrip(t *testing.T) {
	id := strings.Repeat("cd", 32)
	for _, l := range []int{0, 1, 7, 300} {
		gotID, gotL, legacy, derived, ok := parseStoreFile(storeFile(id, l))
		if !ok || gotID != id || gotL != l || legacy || !derived {
			t.Errorf("round-trip of L=%d: got (%q, %d, %v, %v, %v)", l, gotID, gotL, legacy, derived, ok)
		}
	}
	for name, wantDerived := range map[string]bool{
		id + ".l2.auto.compact.store":  true,
		id + ".l2.bitbfs.packed.store": false,
		id + ".l300.fw.packed.store":   true,
		id + ".l300.bfs.compact.store": false,
		id + ".l2.auto.mapped.store":   false,
		id + ".l2.bfs.mmap.store":      false,
		id + ".l2.auto.paged.store":    false,
	} {
		gotID, _, legacy, derived, ok := parseStoreFile(name)
		if !ok || gotID != id || !legacy || derived != wantDerived {
			t.Errorf("legacy %q: got (%q, legacy=%v, derived=%v, %v)", name, gotID, legacy, derived, ok)
		}
	}
	for _, bad := range []string{"x.graph", "a.l2.auto.compact", "a.lx.auto.compact.store", "a.l2.dijkstra.compact.store", "a.l2.auto.sparse.store", "a.l2.auto.store", "a.l-1.store", "a.store"} {
		if _, _, _, _, ok := parseStoreFile(bad); ok {
			t.Errorf("parseStoreFile accepted %q", bad)
		}
	}
}

// TestLegacyStoreFilesMigrate boots a data dir written in the format
// that keyed stores by engine and backing: two engines' copies of L=2,
// a packed copy of L=2 and a copy named for the retired mapped backing,
// plus an L=3 store under the current name
// next to a damaged legacy copy of it. Every residency boots warm,
// seeds one store per (id, L) — the current name wins — deletes the
// redundant copies instead of quarantining them, and leaves only
// <id>.l<L>.store names behind.
func TestLegacyStoreFilesMigrate(t *testing.T) {
	n, edges := persistGraphEdges()
	canonical, err := Canonicalize(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	id := Digest(n, canonical)
	raw := New(Config{})
	g, _, err := raw.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(L int, kind apsp.Kind) []byte {
		st, _ := g.Store(L)
		m := apsp.NewStore(n, L, kind)
		apsp.Copy(m, st)
		b, err := apsp.MarshalStore(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	legacy := map[string][]byte{
		graphFile(id):                   encodeGraphSnapshot(n, canonical),
		id + ".l2.auto.compact.store":   marshal(2, apsp.KindCompact),
		id + ".l2.bitbfs.compact.store": marshal(2, apsp.KindCompact),
		id + ".l2.pointer.packed.store": marshal(2, apsp.KindPacked),
		id + ".l2.auto.mapped.store":    marshal(2, apsp.KindCompact),
		storeFile(id, 3):                marshal(3, apsp.KindCompact),
		id + ".l3.bfs.compact.store":    marshal(3, apsp.KindCompact)[:30],
	}
	for name, cfg := range map[string]Config{
		"heap":  {},
		"paged": {PagedStores: true},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for file, data := range legacy {
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Dir = dir
			r := New(cfg)
			ps := r.Stats().Persist
			if ps.StoresLoaded != 2 || ps.Quarantined != 0 || ps.Deletes != 4 {
				t.Fatalf("boot: %+v, want 2 stores loaded, 0 quarantined, 4 deleted", ps)
			}
			got, ok := r.Get(id)
			if !ok {
				t.Fatal("graph not recovered")
			}
			for _, L := range []int{2, 3} {
				st, reused := got.Store(L)
				if !reused {
					t.Fatalf("L=%d: store rebuilt after migration", L)
				}
				want, _ := g.Store(L)
				if !apsp.Equal(st, want) {
					t.Fatalf("L=%d: migrated store differs from a fresh build", L)
				}
			}
			if st := r.Stats(); st.StoreMisses != 0 || st.Stores != 2 {
				t.Fatalf("store_misses=%d stores=%d, want 0 and 2", st.StoreMisses, st.Stores)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			want := []string{graphFile(id), storeFile(id, 2), storeFile(id, 3)}
			if strings.Join(names, " ") != strings.Join(want, " ") {
				t.Fatalf("data dir holds %v, want %v", names, want)
			}
		})
	}
	if _, _, _, _, err := New(Config{}).InstallSnapshot(id, legacySnapshot(t, g), 0); err == nil {
		t.Fatal("a version-1 snapshot envelope installed without error")
	}
}

// TestPersistRepairChainWriteThrough follows the write path of a
// churning graph: ten 2-remove/2-add Mutate steps on an acm200 graph
// at L=2, each child's store repaired from its parent's and written
// through. The chain outgrows RepairOptions.CompactDepth twice, so
// both the overlay and the compacted encodings are written.
// Every store file must be byte-identical to the snapshot of a fresh
// build of its child, and a restarted registry must serve every child
// from its file with zero builds.
func TestPersistRepairChainWriteThrough(t *testing.T) {
	const L = 2
	dir := t.TempDir()
	base := dataset.Generate(dataset.ACM(200), 1)
	var edges [][2]int
	for _, e := range base.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	r := New(Config{Dir: dir})
	g, _, err := r.Put(base.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(L)

	rng := rand.New(rand.NewSource(1))
	var children []string
	compactions := 0
	for step := 0; step < 10; step++ {
		present := g.Edges()
		var adds, removes [][2]int
		for _, k := range rng.Perm(len(present))[:2] {
			removes = append(removes, present[k])
		}
		for len(adds) < 2 {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.raw.HasEdge(u, v) && (len(adds) == 0 || adds[0] != [2]int{min(u, v), max(u, v)}) {
				adds = append(adds, [2]int{min(u, v), max(u, v)})
			}
		}
		if g, _, err = r.Mutate(g, adds, removes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		st, reused := g.Store(L)
		if reused {
			t.Fatalf("step %d: a fresh child's store was already cached", step)
		}
		if _, ok := st.(*apsp.Overlay); !ok {
			compactions++
		}
		got, err := os.ReadFile(filepath.Join(dir, storeFile(g.ID(), L)))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := apsp.MarshalStore(apsp.Build(g.raw, L, apsp.BuildOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: persisted store differs from the snapshot of a fresh build", step)
		}
		children = append(children, g.ID())
	}
	if compactions != 2 {
		t.Fatalf("10 repair steps compacted the chain %d times, want 2", compactions)
	}
	if s := r.Stats(); s.Builds != 1 || s.Repairs != int64(len(children)) || s.RepairFallbacks != 0 {
		t.Fatalf("builds=%d repairs=%d fallbacks=%d, want 1/%d/0", s.Builds, s.Repairs, s.RepairFallbacks, len(children))
	}

	warm := New(Config{Dir: dir})
	for _, id := range children {
		c, ok := warm.Get(id)
		if !ok {
			t.Fatalf("restarted registry lost child %s", id)
		}
		if _, reused := c.Store(L); !reused {
			t.Fatalf("restarted registry rebuilt the store of child %s", id)
		}
	}
	if s := warm.Stats(); s.Builds != 0 || s.StoreMisses != 0 || s.StoreHits != int64(len(children)) {
		t.Fatalf("restart: builds=%d misses=%d hits=%d, want 0/0/%d", s.Builds, s.StoreMisses, s.StoreHits, len(children))
	}
}
