package apsp

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// pagedFixture builds a snapshot file for a random graph and opens it
// as a paged view over a fresh cache with the given budget.
func pagedFixture(t *testing.T, n int, p float64, seed int64, L int, kind Kind, budget int64) (Store, *PagedStore, *PageCache) {
	t.Helper()
	g := randomGraph(n, p, seed)
	oracle := asKind(build(g, L), kind)
	path := filepath.Join(t.TempDir(), "s.store")
	snapshotFile(t, path, g, L, kind)
	cache := NewPageCache(budget)
	ps, err := OpenPagedStore(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return oracle, ps, cache
}

// TestPagedStoreMatchesOracle: every Get and the full ordered EachPair
// stream agree with the heap oracle, for both payload kinds, even with
// a budget far below the file size.
func TestPagedStoreMatchesOracle(t *testing.T) {
	for _, kind := range []Kind{KindCompact, KindPacked} {
		oracle, ps, _ := pagedFixture(t, 60, 0.1, 21, 3, kind, pageSize)
		if ps.N() != oracle.N() || ps.L() != oracle.L() || ps.Far() != oracle.Far() {
			t.Fatalf("%v: dimensions diverge", kind)
		}
		n := oracle.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if ps.Get(i, j) != oracle.Get(i, j) {
					t.Fatalf("%v: Get(%d,%d) = %d, oracle %d", kind, i, j, ps.Get(i, j), oracle.Get(i, j))
				}
			}
		}
		type cell struct{ i, j, d int }
		var want []cell
		oracle.EachPair(func(i, j, d int) { want = append(want, cell{i, j, d}) })
		k := 0
		ps.EachPair(func(i, j, d int) {
			if k >= len(want) || want[k] != (cell{i, j, d}) {
				t.Fatalf("%v: EachPair[%d] = %v", kind, k, cell{i, j, d})
			}
			k++
		})
		if k != len(want) {
			t.Fatalf("%v: EachPair emitted %d cells, want %d", kind, k, len(want))
		}
	}
}

// TestPagedStoreBudget: the cache never holds more than its budget (the
// one-page floor aside), and a scan bigger than the budget evicts.
func TestPagedStoreBudget(t *testing.T) {
	// n=600 compact cells ≈ 180k bytes ≈ 3 pages; budget of 1 page
	// forces eviction traffic.
	oracle, ps, cache := pagedFixture(t, 600, 0.02, 33, 2, KindCompact, pageSize)
	rng := rand.New(rand.NewSource(1))
	n := oracle.N()
	for k := 0; k < 5000; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if ps.Get(i, j) != oracle.Get(i, j) {
			t.Fatalf("Get(%d,%d) diverged under eviction pressure", i, j)
		}
		if st := cache.Stats(); st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("resident %d bytes exceeds budget %d", st.ResidentBytes, st.BudgetBytes)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite budget < file size")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("implausible traffic: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if got := ps.ResidentBytes(); got > st.BudgetBytes {
		t.Fatalf("store resident %d exceeds budget", got)
	}
	ps.DropPages()
	if got := ps.ResidentBytes(); got != 0 {
		t.Fatalf("DropPages left %d resident bytes", got)
	}
	// Dropped pages re-fault on demand: reads still serve.
	if ps.Get(0, 1) != oracle.Get(0, 1) {
		t.Fatal("read after DropPages diverged")
	}
}

// TestPageCacheSharedBudget: two stores on one cache share its budget —
// total residency stays capped while both keep serving correct cells.
func TestPageCacheSharedBudget(t *testing.T) {
	dir := t.TempDir()
	cache := NewPageCache(2 * pageSize)
	var oracles []Store
	var stores []*PagedStore
	for s := 0; s < 2; s++ {
		g := randomGraph(500, 0.02, int64(50+s))
		oracles = append(oracles, Build(g, 2, BuildOptions{}))
		path := filepath.Join(dir, string(rune('a'+s))+".store")
		if err := BuildToFile(path, g, 2, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		ps, err := OpenPagedStore(path, cache)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		stores = append(stores, ps)
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 3000; k++ {
		s := k % 2
		i, j := rng.Intn(500), rng.Intn(500)
		if i == j {
			continue
		}
		if stores[s].Get(i, j) != oracles[s].Get(i, j) {
			t.Fatalf("store %d diverged", s)
		}
	}
	if st := cache.Stats(); st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("shared residency %d exceeds budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	// Closing one store reclaims its pages without touching the other.
	stores[0].Close()
	if got := stores[0].ResidentBytes(); got != 0 {
		t.Fatalf("closed store still resident: %d bytes", got)
	}
	if stores[1].Get(1, 2) != oracles[1].Get(1, 2) {
		t.Fatal("surviving store diverged after sibling Close")
	}
}

// TestPagedStoreCloneAndReadOnly: Clone materializes an equal, mutable,
// independent heap store; the paged view itself never satisfies
// MutableStore.
func TestPagedStoreCloneAndReadOnly(t *testing.T) {
	oracle, ps, _ := pagedFixture(t, 40, 0.2, 77, 3, KindCompact, 1<<20)
	if _, ok := Store(ps).(MutableStore); ok {
		t.Fatal("PagedStore must not implement MutableStore")
	}
	c := ps.Clone().(MutableStore)
	if !Equal(c, oracle) {
		t.Fatal("clone differs from oracle")
	}
	i, j := -1, -1
	oracle.EachPair(func(x, y, d int) {
		if i < 0 && d > 1 {
			i, j = x, y
		}
	})
	if i < 0 {
		t.Skip("no mutable pair in fixture")
	}
	c.Set(i, j, 1)
	if ps.Get(i, j) == 1 {
		t.Fatal("mutating a clone changed the paged view")
	}
}

// TestOpenPagedStoreRejectsCorrupt: bad magic, impossible dimensions,
// and truncated payloads fail at open with an error, never a panic,
// and a nil cache is rejected.
func TestOpenPagedStoreRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(12, 0.3, 3)
	good := filepath.Join(dir, "good.store")
	if err := BuildToFile(good, g, 2, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	cache := NewPageCache(1 << 20)
	if _, err := OpenPagedStore(good, nil); err == nil {
		t.Fatal("nil cache accepted")
	}

	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		b := mutate(append([]byte(nil), raw...))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPagedStore(p, cache); err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", name)
		}
	}
	corrupt("magic.store", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("version.store", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("short.store", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("long.store", func(b []byte) []byte { return append(b, 0) })
	corrupt("header.store", func(b []byte) []byte { return b[:storeHeaderLen-2] })
}

// TestPagedStoreCorruptCellCaughtByClone documents the validation
// tradeoff: a cell below 1 passes open (no full-file scan) but cannot
// leak into a mutable store — Clone's decode rejects it.
func TestPagedStoreCorruptCellCaughtByClone(t *testing.T) {
	g := randomGraph(10, 0.4, 4)
	data, err := MarshalStore(build(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 0
	path := filepath.Join(t.TempDir(), "cell.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenPagedStore(path, NewPageCache(pageSize))
	if err != nil {
		t.Fatalf("open rejected a corrupt cell it should defer: %v", err)
	}
	defer ps.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a corrupt-cell snapshot did not panic")
		}
	}()
	ps.Clone()
}

// TestPagedStoreFootprint: the byte gauges see through the view — file
// bytes equal the snapshot size, heap bytes equal current residency.
func TestPagedStoreFootprint(t *testing.T) {
	_, ps, _ := pagedFixture(t, 200, 0.05, 13, 2, KindCompact, pageSize)
	heap0, file := Footprint(ps)
	if heap0 != 0 {
		t.Fatalf("untouched paged store reports %d heap bytes", heap0)
	}
	want := int64(storeHeaderLen + 200*199/2)
	if file != want {
		t.Fatalf("file bytes %d, want %d", file, want)
	}
	ps.Get(0, 1)
	heap1, _ := Footprint(ps)
	if heap1 <= 0 {
		t.Fatal("touched paged store reports no resident bytes")
	}
	if name := BackingName(ps); name != "paged" {
		t.Fatalf("BackingName = %q", name)
	}
}
