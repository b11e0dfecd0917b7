package apsp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestInsertionDeltaPath(t *testing.T) {
	// Path 0-1-2-3; inserting 0-3 closes the cycle.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	m := build(g, 3)
	changed := map[[2]int][2]int{}
	InsertionDelta(m, 0, 3, func(x, y, oldD, newD int) {
		changed[[2]int{x, y}] = [2]int{oldD, newD}
	})
	want := map[[2]int][2]int{
		{0, 3}: {3, 1},
		{0, 2}: {2, 2}, // unchanged, must be absent
	}
	if got, ok := changed[[2]int{0, 3}]; !ok || got != want[[2]int{0, 3}] {
		t.Fatalf("pair (0,3): got %v changed=%v", got, changed)
	}
	if _, ok := changed[[2]int{0, 2}]; ok {
		t.Fatal("pair (0,2) reported changed but distance is unchanged")
	}
	// d(1,3) stays 2 (1-2-3 vs 1-0-3 both length 2): no change.
	if _, ok := changed[[2]int{1, 3}]; ok {
		t.Fatal("pair (1,3) reported changed")
	}
}

func TestApplyInsertionMatchesRecompute(t *testing.T) {
	g := randomGraph(14, 0.15, 9)
	L := 3
	m := build(g, L)
	// Pick an absent edge deterministically.
	var u, v int
	found := false
	for i := 0; i < 14 && !found; i++ {
		for j := i + 1; j < 14 && !found; j++ {
			if !g.HasEdge(i, j) {
				u, v = i, j
				found = true
			}
		}
	}
	if !found {
		t.Skip("graph is complete")
	}
	ApplyInsertion(m, u, v)
	g.AddEdge(u, v)
	if want := build(g, L); !Equal(m, want) {
		t.Fatal("ApplyInsertion disagrees with full recomputation")
	}
}

func TestRemovalDeltaRestoresGraph(t *testing.T) {
	g := randomGraph(10, 0.3, 3)
	before := g.Clone()
	m := build(g, 2)
	e := g.Edges()[0]
	RemovalDelta(g, m, e.U, e.V, nil, func(x, y, oldD, newD int) {})
	if !g.Equal(before) {
		t.Fatal("RemovalDelta left the graph mutated")
	}
}

func TestRemovalDeltaAbsentEdgePanics(t *testing.T) {
	g := graph.New(3)
	m := build(g, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("RemovalDelta on absent edge did not panic")
		}
	}()
	RemovalDelta(g, m, 0, 1, nil, nil)
}

func TestApplyRemovalMatchesRecompute(t *testing.T) {
	g := randomGraph(14, 0.2, 21)
	L := 3
	m := build(g, L)
	if g.M() == 0 {
		t.Skip("no edges")
	}
	e := g.Edges()[g.M()/2]
	ApplyRemoval(g, m, e.U, e.V, nil)
	g.RemoveEdge(e.U, e.V)
	if want := build(g, L); !Equal(m, want) {
		t.Fatal("ApplyRemoval disagrees with full recomputation")
	}
}

func TestPropertyInsertionDeltaExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.2, seed)
		m := build(g, L)
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			return true
		}
		ApplyInsertion(m, u, v)
		g.AddEdge(u, v)
		return Equal(m, build(g, L))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRemovalDeltaExact(t *testing.T) {
	scratch := NewScratch(20)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		m := build(g, L)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		sc := scratch
		if n > 20 {
			sc = nil
		}
		ApplyRemoval(g, m, e.U, e.V, sc)
		g.RemoveEdge(e.U, e.V)
		return Equal(m, build(g, L))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRemovalOnlyLengthens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		m := build(g, L)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		ok := true
		RemovalDelta(g, m, e.U, e.V, nil, func(x, y, oldD, newD int) {
			if newD <= oldD {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInsertionOnlyShortens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.2, seed)
		m := build(g, L)
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			return true
		}
		ok := true
		InsertionDelta(m, u, v, func(x, y, oldD, newD int) {
			if newD >= oldD || newD > L {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cappedDist is the store lookup with the implicit zero diagonal.
func cappedDist(m Store, x, y int) int {
	if x == y {
		return 0
	}
	return m.Get(x, y)
}

// TestCrossingSetsCoverChanges: the two crossing sets RemovalDelta
// derives from BFS balls match their store definition, are disjoint,
// hold the edge's endpoints, and witness every pair whose distance
// changes when the edge is removed (one endpoint in each set).
func TestCrossingSetsCoverChanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		m := build(g, L)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		sU, sV := crossingSets(g, L, e.U, e.V, NewScratch(n))
		inU, inV := make(map[int]bool), make(map[int]bool)
		for _, x := range sU {
			inU[x] = true
		}
		for _, x := range sV {
			inV[x] = true
		}
		if !inU[e.U] || !inV[e.V] {
			return false
		}
		for x := 0; x < n; x++ {
			du, dv := cappedDist(m, x, e.U), cappedDist(m, x, e.V)
			if inU[x] != (du <= L-1 && dv == du+1) || inV[x] != (dv <= L-1 && du == dv+1) {
				return false // a set disagrees with its definition
			}
			if inU[x] && inV[x] {
				return false
			}
		}
		g.RemoveEdge(e.U, e.V)
		after := build(g, L)
		g.AddEdge(e.U, e.V)
		ok := true
		m.EachPair(func(i, j, d int) {
			if after.Get(i, j) != d && !(inU[i] && inV[j]) && !(inU[j] && inV[i]) {
				ok = false // a changed pair escaped the crossing sets
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type deltaVisit struct{ x, y, oldD, newD int }

// TestPropertyRemovalDeltaMatchesRecompute differentially checks the
// removal kernel against a bounded BFS recompute of every pair on the
// graph with the edge really removed, over compact, packed, and overlay
// stores: the kernel must report exactly the changed pairs, each once,
// with x < y and the true old and new capped distances.
func TestPropertyRemovalDeltaMatchesRecompute(t *testing.T) {
	backings := []struct {
		name string
		make func(g *graph.Graph, L int) Store
	}{
		{"compact", func(g *graph.Graph, L int) Store { return build(g, L) }},
		{"packed", func(g *graph.Graph, L int) Store { return asKind(build(g, L), KindPacked) }},
		{"overlay", func(g *graph.Graph, L int) Store { return NewOverlay(build(g, L)) }},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		L := 1 + rng.Intn(4)
		g := randomGraph(n, 0.05+0.3*rng.Float64(), seed)
		if g.M() == 0 {
			return true
		}
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		h := g.Clone()
		h.RemoveEdge(e.U, e.V)
		want := map[[2]int]deltaVisit{}
		for x := 0; x < n; x++ {
			before, after := g.BoundedBFS(x, L), h.BoundedBFS(x, L)
			for y := x + 1; y < n; y++ {
				if before[y] != after[y] {
					old, nd := before[y], after[y]
					if nd < 0 {
						nd = L + 1
					}
					want[[2]int{x, y}] = deltaVisit{x, y, old, nd}
				}
			}
		}
		sc := NewScratch(n)
		for _, b := range backings {
			m := b.make(g, L)
			got := map[[2]int]deltaVisit{}
			ok := true
			RemovalDelta(g, m, e.U, e.V, sc, func(x, y, oldD, newD int) {
				k := [2]int{x, y}
				if _, dup := got[k]; dup || x >= y {
					ok = false
				}
				got[k] = deltaVisit{x, y, oldD, newD}
			})
			if !ok || len(got) != len(want) {
				t.Logf("%s seed=%d: %d changes, want %d", b.name, seed, len(got), len(want))
				return false
			}
			for k, w := range want {
				if got[k] != w {
					t.Logf("%s seed=%d pair %v: got %+v want %+v", b.name, seed, k, got[k], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaKernelsVisitDeterministic: two calls with the same inputs
// report the identical visit sequence, for both kernels, including
// across a fresh and a reused Scratch.
func TestDeltaKernelsVisitDeterministic(t *testing.T) {
	g := randomGraph(40, 0.08, 5)
	const L = 3
	m := build(g, L)
	record := func(run func(sc *Scratch, visit func(x, y, oldD, newD int)), sc *Scratch) []deltaVisit {
		var seq []deltaVisit
		run(sc, func(x, y, oldD, newD int) { seq = append(seq, deltaVisit{x, y, oldD, newD}) })
		return seq
	}
	reused := NewScratch(g.N())
	for _, e := range g.Edges() {
		rem := func(sc *Scratch, visit func(x, y, oldD, newD int)) { RemovalDelta(g, m, e.U, e.V, sc, visit) }
		a, b := record(rem, NewScratch(g.N())), record(rem, reused)
		if !slices.Equal(a, b) || !slices.Equal(a, record(rem, reused)) {
			t.Fatalf("removal %v: visit sequences differ", e)
		}
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) {
				continue
			}
			ins := func(sc *Scratch, visit func(x, y, oldD, newD int)) { InsertionDeltaScratch(m, u, v, sc, visit) }
			a, b := record(ins, NewScratch(g.N())), record(ins, reused)
			if !slices.Equal(a, b) {
				t.Fatalf("insertion %d-%d: visit sequences differ", u, v)
			}
			// The insertion kernel visits in ascending (x, y) order.
			if !slices.IsSortedFunc(a, func(p, q deltaVisit) int {
				if p.x != q.x {
					return p.x - q.x
				}
				return p.y - q.y
			}) {
				t.Fatalf("insertion %d-%d: visits not ascending", u, v)
			}
		}
	}
}

// TestDeltaKernelsAllocFree: with a warm Scratch neither kernel
// allocates, whatever the store backing.
func TestDeltaKernelsAllocFree(t *testing.T) {
	g := randomGraph(60, 0.06, 11)
	const L = 3
	base := build(g, L)
	e := g.Edges()[g.M()/2]
	u, v := 0, 1
	for g.HasEdge(u, v) {
		v++
	}
	sum := 0
	visit := func(x, y, oldD, newD int) { sum += newD - oldD }
	for _, m := range []Store{base, asKind(build(g, L), KindPacked), NewOverlay(base)} {
		sc := NewScratch(g.N())
		if a := testing.AllocsPerRun(50, func() { RemovalDelta(g, m, e.U, e.V, sc, visit) }); a != 0 {
			t.Errorf("%T: RemovalDelta allocates %v per call", m, a)
		}
		if a := testing.AllocsPerRun(50, func() { InsertionDeltaScratch(m, u, v, sc, visit) }); a != 0 {
			t.Errorf("%T: InsertionDeltaScratch allocates %v per call", m, a)
		}
	}
	if sum == 0 {
		t.Fatal("fixture produced no distance changes")
	}
}
