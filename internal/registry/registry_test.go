package registry

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apsp"
)

func TestCanonicalizeValidates(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"zero n", 0, nil},
		{"negative n", -1, nil},
		{"out of range", 3, [][2]int{{0, 5}}},
		{"negative endpoint", 3, [][2]int{{-1, 1}}},
		{"self-loop", 3, [][2]int{{1, 1}}},
		{"duplicate", 3, [][2]int{{0, 1}, {0, 1}}},
		{"reversed duplicate", 3, [][2]int{{0, 1}, {1, 0}}},
	}
	for _, c := range cases {
		if _, err := Canonicalize(c.n, c.edges); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestCanonicalizeNormalizes(t *testing.T) {
	got, err := Canonicalize(4, [][2]int{{3, 2}, {1, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {0, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDigestStableAcrossSpellings(t *testing.T) {
	a, err := Canonicalize(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(4, [][2]int{{3, 2}, {2, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if Digest(4, a) != Digest(4, b) {
		t.Fatal("permuted/reversed edge lists digest differently")
	}
	c, _ := Canonicalize(4, [][2]int{{0, 1}, {1, 2}})
	if Digest(4, a) == Digest(4, c) {
		t.Fatal("different graphs share a digest")
	}
	if Digest(4, a) == Digest(5, a) {
		t.Fatal("same edges on different vertex counts share a digest")
	}
}

func TestPutDeduplicates(t *testing.T) {
	r := New(Config{})
	g1, created, err := r.Put(4, [][2]int{{0, 1}, {1, 2}})
	if err != nil || !created {
		t.Fatalf("first Put: created=%v err=%v", created, err)
	}
	g2, created, err := r.Put(4, [][2]int{{2, 1}, {1, 0}}) // same graph, different spelling
	if err != nil || created {
		t.Fatalf("second Put: created=%v err=%v", created, err)
	}
	if g1 != g2 || g1.ID() != g2.ID() {
		t.Fatal("same graph registered twice")
	}
	if r.Len() != 1 {
		t.Fatalf("len=%d, want 1", r.Len())
	}
	if g1.N() != 4 || g1.M() != 2 {
		t.Fatalf("n=%d m=%d", g1.N(), g1.M())
	}
}

func TestGetHitMissAndDelete(t *testing.T) {
	r := New(Config{})
	g, _, err := r.Put(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(g.ID()); !ok {
		t.Fatal("registered graph not found")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("found a graph that was never registered")
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if !r.Delete(g.ID()) {
		t.Fatal("delete of present graph reported absent")
	}
	if r.Delete(g.ID()) {
		t.Fatal("second delete reported present")
	}
	if st := r.Stats(); st.Graphs != 0 {
		t.Fatalf("graphs=%d after delete", st.Graphs)
	}
}

func TestLRUEviction(t *testing.T) {
	r := New(Config{MaxGraphs: 2})
	ids := make([]string, 3)
	for i := range ids {
		g, _, err := r.Put(4, [][2]int{{0, 1}, {1, 2}, {0, i%2 + 2}, {i%2 + 1, 3}}[:i+2])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = g.ID()
	}
	if r.Len() != 2 {
		t.Fatalf("len=%d, want 2", r.Len())
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("least recently used graph survived eviction")
	}
	for _, id := range ids[1:] {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("recently used graph %s evicted", id)
		}
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}

	// A Get refreshes recency: after touching ids[1], registering a
	// fourth graph must evict ids[2] instead.
	if _, ok := r.Get(ids[1]); !ok {
		t.Fatal("ids[1] missing")
	}
	if _, _, err := r.Put(2, [][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(ids[1]); !ok {
		t.Fatal("recently touched graph evicted")
	}
	if _, ok := r.Get(ids[2]); ok {
		t.Fatal("stale graph survived")
	}
}

func TestDistancesBuildsOnceAndReuses(t *testing.T) {
	r := New(Config{})
	g, _, err := r.Put(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	s1, reused := g.Store(2)
	if reused {
		t.Fatal("first Distances call reported reuse")
	}
	s2, reused := g.Store(2)
	if !reused {
		t.Fatal("second Distances call rebuilt")
	}
	if s1 != s2 {
		t.Fatal("second call returned a different store")
	}
	if s1.Get(0, 2) != 2 || s1.Get(0, 4) != s1.Far() {
		t.Fatalf("store contents wrong: d(0,2)=%d d(0,4)=%d", s1.Get(0, 2), s1.Get(0, 4))
	}
	// A different key is a different store.
	s3, reused := g.Store(3)
	if reused || s3 == s1 {
		t.Fatal("distinct L shared a store")
	}
	st := r.Stats()
	if st.StoreMisses != 2 || st.StoreHits != 1 || st.Stores != 2 {
		t.Fatalf("store counters: %+v", st)
	}
}

// TestDistancesSharesSlotAcrossDegradedKinds: Distances ignores its
// engine and backing hints — every spelling, below and above
// MaxCompactL, shares the one store for L instead of caching
// byte-equivalent twins in separate LRU slots.
func TestDistancesSharesSlotAcrossDegradedKinds(t *testing.T) {
	r := New(Config{})
	g, _, err := r.Put(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, L := range []int{2, apsp.MaxCompactL + 1} {
		s1, _ := g.Store(L)
		for _, e := range []apsp.Engine{apsp.EngineAuto, apsp.EngineBFS, apsp.EngineBit} {
			for _, k := range []apsp.Kind{apsp.KindCompact, apsp.KindPacked, apsp.KindMapped} {
				if s2, reused := g.Distances(L, e, k); !reused || s1 != s2 {
					t.Fatalf("L=%d %v/%v: hints cached a separate store", L, e, k)
				}
			}
		}
		if apsp.KindOf(s1) != apsp.KindFor(L) {
			t.Fatalf("L=%d: backing %v, want %v", L, apsp.KindOf(s1), apsp.KindFor(L))
		}
	}
	if g.StoreCount() != 2 {
		t.Fatalf("stores=%d, want 2", g.StoreCount())
	}
}

func TestStoreLRUPerGraph(t *testing.T) {
	r := New(Config{MaxStoresPerGraph: 2})
	g, _, err := r.Put(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	g.Store(1)
	g.Store(2)
	g.Store(3) // evicts L=1
	if got := g.StoreCount(); got != 2 {
		t.Fatalf("stores=%d, want 2", got)
	}
	if _, reused := g.Store(2); !reused {
		t.Fatal("L=2 store evicted though more recent than L=1")
	}
	if _, reused := g.Store(1); reused {
		t.Fatal("evicted L=1 store served as a hit")
	}
	st := r.Stats()
	if st.StoreEvictions < 1 {
		t.Fatalf("store evictions=%d, want >= 1", st.StoreEvictions)
	}
}

// TestConcurrentAccess hammers every registry operation from many
// goroutines; the race detector is the assertion. It also checks the
// single-build guarantee: all goroutines asking for one (graph, key)
// must get the same store instance.
func TestConcurrentAccess(t *testing.T) {
	r := New(Config{MaxGraphs: 8, MaxStoresPerGraph: 2})
	g, _, err := r.Put(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	storesSeen := make([]apsp.Store, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Everyone asks for the same store...
			st, _ := g.Store(2)
			storesSeen[w] = st
			// ...while also churning registrations, lookups, and other
			// store keys.
			gg, _, err := r.Put(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}[:w%2+2])
			if err != nil {
				t.Error(err)
				return
			}
			gg.Store(1 + w%3)
			r.Get(gg.ID())
			r.Get(fmt.Sprintf("missing-%d", w))
			if w%5 == 0 {
				r.Delete(gg.ID())
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if storesSeen[w] != storesSeen[0] {
			t.Fatal("concurrent callers received different stores for one key")
		}
	}
	st := r.Stats()
	if st.StoreMisses < 1 || st.StoreHits < workers-1 {
		t.Fatalf("store counters inconsistent with single-build: %+v", st)
	}
}
