package apsp

import (
	"math/rand"
	"testing"
)

// mutateRandom applies the same pseudo-random write sequence to any
// mutable store; used to drive an overlay and a heap twin identically.
func mutateRandom(m MutableStore, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := m.N()
	for k := 0; k < count; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		m.Set(u, v, 1+rng.Intn(m.Far()))
	}
}

// TestOverlayReadThrough: an unwritten overlay is transparent — every
// Get and the full EachPair stream match the base exactly, and no
// dirty cell exists.
func TestOverlayReadThrough(t *testing.T) {
	g := randomGraph(30, 0.2, 7)
	base := build(g, 3)
	o := NewOverlay(base)
	if o.N() != base.N() || o.L() != base.L() || o.Far() != base.Far() {
		t.Fatal("overlay dimensions diverge from base")
	}
	if !Equal(o, base) {
		t.Fatal("unwritten overlay differs from base")
	}
	if o.Dirty() != 0 {
		t.Fatalf("unwritten overlay has %d dirty cells", o.Dirty())
	}
	var pairs, basePairs int
	o.EachPair(func(i, j, d int) { pairs++ })
	base.EachPair(func(i, j, d int) { basePairs++ })
	if pairs != basePairs {
		t.Fatalf("overlay EachPair emitted %d pairs, base %d", pairs, basePairs)
	}
}

// TestOverlayMatchesMutatedClone: the same write sequence applied to an
// overlay and to a deep clone of the base produces identical stores —
// and the base itself never moves.
func TestOverlayMatchesMutatedClone(t *testing.T) {
	for _, kind := range []Kind{KindCompact, KindPacked} {
		g := randomGraph(40, 0.15, 11)
		base := asKind(build(g, 3), kind)
		pristine := base.Clone()

		o := NewOverlay(base)
		c := base.Clone().(MutableStore)
		mutateRandom(o, 500, 42)
		mutateRandom(c, 500, 42)

		if !Equal(o, c) {
			t.Fatalf("%v: overlay and mutated clone diverge", kind)
		}
		if !Equal(base, pristine) {
			t.Fatalf("%v: writing the overlay mutated its base", kind)
		}
		// EachPair must agree cell-for-cell in row-major order, not just
		// through Get.
		type cell struct{ i, j, d int }
		var want []cell
		c.EachPair(func(i, j, d int) { want = append(want, cell{i, j, d}) })
		k := 0
		o.EachPair(func(i, j, d int) {
			if want[k] != (cell{i, j, d}) {
				t.Fatalf("%v: EachPair[%d] = %v, want %v", kind, k, cell{i, j, d}, want[k])
			}
			k++
		})
		if k != len(want) {
			t.Fatalf("%v: overlay EachPair emitted %d cells, want %d", kind, k, len(want))
		}
	}
}

// TestOverlayCloneIndependence: cloning an overlay copies the dirty set
// — mutations on either side are invisible to the other, while both
// keep sharing the read-only base.
func TestOverlayCloneIndependence(t *testing.T) {
	g := randomGraph(25, 0.2, 3)
	base := build(g, 3)
	o := NewOverlay(base)
	mutateRandom(o, 100, 1)

	c := o.Clone().(MutableStore)
	if !Equal(o, c) {
		t.Fatal("clone differs from original")
	}
	snapshot := o.Compact()

	mutateRandom(c, 100, 2)
	if !Equal(o, snapshot) {
		t.Fatal("mutating the clone changed the original overlay")
	}
	mutateRandom(o, 100, 3)
	cSnapshot := make(map[[2]int]int)
	c.EachPair(func(i, j, d int) { cSnapshot[[2]int{i, j}] = d })
	o.EachPair(func(i, j, d int) {
		if got := cSnapshot[[2]int{i, j}]; got == 0 {
			t.Fatalf("clone missing pair (%d,%d)", i, j)
		}
	})
}

// TestOverlayReconvergence: writing a cell away from and then back to
// its base value removes the override — rejected annealing moves and
// probe/revert scans leave the overlay as sparse as they found it.
func TestOverlayReconvergence(t *testing.T) {
	g := randomGraph(20, 0.3, 5)
	base := build(g, 2)
	o := NewOverlay(base)

	i, j := -1, -1
	var orig int
	base.EachPair(func(x, y, d int) {
		if i < 0 && d > 1 {
			i, j, orig = x, y, d
		}
	})
	if i < 0 {
		t.Skip("no mutable pair in fixture")
	}
	o.Set(i, j, 1)
	if o.Dirty() != 1 || o.Get(i, j) != 1 {
		t.Fatalf("after write: dirty=%d get=%d", o.Dirty(), o.Get(i, j))
	}
	o.Set(i, j, orig)
	if o.Dirty() != 0 {
		t.Fatalf("after revert: %d dirty cells remain", o.Dirty())
	}
	if o.Get(i, j) != orig {
		t.Fatalf("after revert: get=%d want %d", o.Get(i, j), orig)
	}
}

// TestOverlayDeltaEquivalence: the incremental delta appliers writing
// through an overlay agree exactly with the same deltas applied to a
// heap clone — the mutation path of every anonymization run.
func TestOverlayDeltaEquivalence(t *testing.T) {
	g := randomGraph(30, 0.2, 9)
	base := build(g, 3)
	o := NewOverlay(base)
	c := base.Clone().(MutableStore)

	work := g.Clone()
	var edges [][2]int
	work.EachEdge(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	if len(edges) < 4 {
		t.Skip("fixture too sparse")
	}
	scratch := NewScratch(g.N())
	for _, e := range edges[:2] {
		ApplyRemoval(work, o, e[0], e[1], scratch)
		ApplyRemoval(work, c, e[0], e[1], scratch)
		work.RemoveEdge(e[0], e[1])
	}
	u, v := edges[0][0], edges[1][1]
	if u != v && !work.HasEdge(u, v) {
		ApplyInsertion(o, u, v)
		ApplyInsertion(c, u, v)
	}
	if !Equal(o, c) {
		t.Fatal("delta application through overlay diverges from heap clone")
	}
}

// TestOverlaySetValidation: the overlay enforces the same Set contract
// as the heap backings — clamp above Far, panic below 1, panic on a
// diagonal or out-of-range pair.
func TestOverlaySetValidation(t *testing.T) {
	base := NewStore(5, 3, KindCompact)
	o := NewOverlay(base)
	o.Set(0, 1, 99)
	if got := o.Get(0, 1); got != o.Far() {
		t.Fatalf("overflow write stored %d, want Far=%d", got, o.Far())
	}
	mustPanicOverlay(t, "d<1", func() { o.Set(0, 1, 0) })
	mustPanicOverlay(t, "diagonal", func() { o.Set(2, 2, 1) })
	mustPanicOverlay(t, "range", func() { o.Get(0, 9) })
}

func mustPanicOverlay(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}
