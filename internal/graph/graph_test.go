package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d: degree %d, want 0", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdge(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false on empty graph")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric after insertion")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d, %d, want 1, 1", g.Degree(0), g.Degree(1))
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	cases := []struct {
		name string
		u, v int
	}{
		{"duplicate", 0, 1},
		{"reversed duplicate", 1, 0},
		{"self-loop", 2, 2},
		{"negative", -1, 0},
		{"out of range", 0, 3},
	}
	for _, c := range cases {
		if g.AddEdge(c.u, c.v) {
			t.Errorf("%s: AddEdge(%d,%d) = true, want false", c.name, c.u, c.v)
		}
	}
	if g.M() != 1 {
		t.Fatalf("M changed to %d after rejected inserts", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) = false for present edge")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge still present after removal")
	}
	if g.M() != 1 || g.Degree(0) != 0 || g.Degree(1) != 1 {
		t.Fatalf("bookkeeping wrong after removal: m=%d d0=%d d1=%d", g.M(), g.Degree(0), g.Degree(1))
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge = true for absent edge")
	}
	if g.RemoveEdge(0, 0) {
		t.Fatal("RemoveEdge = true for self-loop")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	got := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", got, want)
		}
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges() = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges() = %v, want %v", es, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.RemoveEdge(0, 1)
	c.AddEdge(2, 3)
	if g.Equal(c) {
		t.Fatal("mutating clone affected Equal")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Fatal("mutating clone affected original edges")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := New(3)
	a.AddEdge(0, 1)
	b := New(3)
	b.AddEdge(0, 2)
	if a.Equal(b) {
		t.Fatal("graphs with different edges reported equal")
	}
	b.RemoveEdge(0, 2)
	b.AddEdge(0, 1)
	if !a.Equal(b) {
		t.Fatal("identical graphs reported unequal")
	}
	if a.Equal(New(4)) {
		t.Fatal("different vertex counts reported equal")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := New(4) // path 0-1-2-3: degrees 1,2,2,1
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	h := g.DegreeHistogram()
	want := []int{0, 2, 2}
	if len(h) != len(want) {
		t.Fatalf("histogram %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram %v, want %v", h, want)
		}
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("FromEdges built wrong graph: %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromEdges with duplicate edge did not panic")
		}
	}()
	FromEdges(3, []Edge{{0, 1}, {1, 0}})
}

func TestString(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	if got := g.String(); got != "graph{n=2 m=1}" {
		t.Fatalf("String() = %q", got)
	}
}

// randomGraph builds a seeded Erdos-Renyi-style graph for property tests.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestPropertyMutationSequencePreservesInvariants(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(12, 0.3, seed)
		for _, raw := range opsRaw {
			u := int(raw) % 12
			v := int(raw>>4) % 12
			if rng.Intn(2) == 0 {
				g.AddEdge(u, v)
			} else {
				g.RemoveEdge(u, v)
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHandshakeLemma(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(20, 0.25, seed)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddRemoveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(15, 0.3, seed)
		before := g.Clone()
		rng := rand.New(rand.NewSource(seed + 1))
		u, v := rng.Intn(15), rng.Intn(15)
		if u == v || g.HasEdge(u, v) {
			return true // nothing to test for this draw
		}
		g.AddEdge(u, v)
		g.RemoveEdge(u, v)
		return g.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsCorruptNeighborLists: Validate enforces the
// adjacency representation's invariant — every neighbor list strictly
// ascending — on top of symmetry and edge-count bookkeeping.
func TestValidateRejectsCorruptNeighborLists(t *testing.T) {
	fresh := func() *Graph { return FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}}) }
	if err := fresh().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	cases := map[string]func(g *Graph){
		"unsorted":   func(g *Graph) { g.adj[0][0], g.adj[0][1] = g.adj[0][1], g.adj[0][0] },
		"duplicate":  func(g *Graph) { g.adj[0][2] = g.adj[0][1] },
		"self-loop":  func(g *Graph) { g.adj[3] = []int32{0, 3} },
		"range":      func(g *Graph) { g.adj[3] = []int32{0, 9} },
		"asymmetric": func(g *Graph) { g.adj[3] = nil; g.adj[2] = []int32{0, 1, 3} },
		"edge-count": func(g *Graph) { g.m++ },
	}
	for name, corrupt := range cases {
		g := fresh()
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt graph", name)
		}
	}
}

// TestPropertyMutationsMatchMapModel drives a random add/remove
// sequence against a map-of-sets model and checks every observable —
// return values, membership, degrees, ascending neighbor lists,
// canonical edge order, and the frozen CSR — after each step.
func TestPropertyMutationsMatchMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := New(n)
		model := make([]map[int]bool, n)
		for v := range model {
			model[v] = map[int]bool{}
		}
		for step := 0; step < 200; step++ {
			u, v := rng.Intn(n+1)-rng.Intn(2), rng.Intn(n) // occasionally out of range
			valid := u >= 0 && u < n && u != v
			if rng.Intn(3) > 0 {
				want := valid && !model[u][v]
				if g.AddEdge(u, v) != want {
					return false
				}
				if want {
					model[u][v], model[v][u] = true, true
				}
			} else {
				want := valid && model[u][v]
				if g.RemoveEdge(u, v) != want {
					return false
				}
				if want {
					delete(model[u], v)
					delete(model[v], u)
				}
			}
		}
		if g.Validate() != nil {
			return false
		}
		var edges []Edge
		c := g.Frozen()
		for v := 0; v < n; v++ {
			var want []int
			for w := range model[v] {
				want = append(want, w)
				if v < w {
					edges = append(edges, Edge{U: v, V: w})
				}
			}
			slices.Sort(want)
			var each []int
			g.EachNeighbor(v, func(w int) { each = append(each, w) })
			var frozen []int
			for _, w := range c.Neighbors(v) {
				frozen = append(frozen, int(w))
			}
			if g.Degree(v) != len(want) || !slices.Equal(g.Neighbors(v), want) ||
				!slices.Equal(each, want) || !slices.Equal(frozen, want) {
				return false
			}
			for w := 0; w < n; w++ {
				if g.HasEdge(v, w) != model[v][w] {
					return false
				}
			}
		}
		sortEdges(edges)
		return slices.Equal(g.Edges(), edges) && g.M() == len(edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBulkBuildMatchesIncremental: the append-then-sort constructor
// behind FromEdges and the decoders builds exactly the graph repeated
// AddEdge calls build, silently dropping self-loops, out-of-range
// endpoints, and duplicates in either orientation.
func TestBulkBuildMatchesIncremental(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		edges := make([]Edge, rng.Intn(60))
		want := New(n)
		for i := range edges {
			edges[i] = Edge{U: rng.Intn(n+1) - rng.Intn(2), V: rng.Intn(n)}
			want.AddEdge(edges[i].U, edges[i].V)
		}
		got, dropped := build(n, edges)
		pairs := make([][2]int, len(edges))
		for i, e := range edges {
			pairs[i] = [2]int{e.U, e.V}
		}
		fromPairs := FromPairs(n, pairs)
		return got.Validate() == nil && got.Equal(want) && dropped == len(edges)-want.M() &&
			fromPairs.Validate() == nil && fromPairs.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
