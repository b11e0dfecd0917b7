package graph

import (
	"math/rand"
	"testing"
)

// TestFrozenMatchesAdjacency: every CSR window equals the sorted
// Neighbors list, and the aggregate counts agree.
func TestFrozenMatchesAdjacency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomGraph(60, 0.1, seed)
		c := g.Frozen()
		if c.N() != g.N() || c.M() != g.M() {
			t.Fatalf("CSR is %d vertices / %d edges, graph is %d / %d", c.N(), c.M(), g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			want := g.Neighbors(v) // sorted copy
			got := c.Neighbors(v)
			if len(got) != len(want) || c.Degree(v) != len(want) {
				t.Fatalf("vertex %d: CSR window %v, Neighbors %v", v, got, want)
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("vertex %d: CSR window %v, Neighbors %v", v, got, want)
				}
			}
		}
	}
}

// TestFrozenSnapshotImmutable: mutating the graph after Frozen leaves
// the snapshot at its point-in-time contents.
func TestFrozenSnapshotImmutable(t *testing.T) {
	g := pathGraph(4)
	c := g.Frozen()
	g.AddEdge(0, 3)
	g.RemoveEdge(1, 2)
	if c.M() != 3 || c.Degree(0) != 1 || len(c.Neighbors(1)) != 2 {
		t.Fatalf("snapshot changed after graph mutation: m=%d deg0=%d", c.M(), c.Degree(0))
	}
}

// TestCSRBoundedBFSMatchesGraph: CSR BFS agrees with the mutable graph's
// BFS at every depth, and the returned visit order is exactly the set
// of written entries.
func TestCSRBoundedBFSMatchesGraph(t *testing.T) {
	for _, seed := range []int64{7, 8} {
		g := randomGraph(50, 0.08, seed)
		c := g.Frozen()
		n := g.N()
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		queue := make([]int32, 0, n)
		for depth := 0; depth <= 4; depth++ {
			for src := 0; src < n; src++ {
				want := g.BoundedBFS(src, depth)
				visited := c.BoundedBFSInto(src, depth, dist, queue)
				written := 0
				for v := 0; v < n; v++ {
					if int(dist[v]) != want[v] {
						t.Fatalf("seed %d src %d depth %d: dist[%d] = %d, want %d", seed, src, depth, v, dist[v], want[v])
					}
					if dist[v] >= 0 {
						written++
					}
				}
				if written != len(visited) {
					t.Fatalf("visit order has %d entries, %d dist cells written", len(visited), written)
				}
				for _, v := range visited {
					dist[v] = -1
				}
				queue = visited[:0]
			}
		}
	}
}

// TestCSRBFSZeroAllocs is the hot-loop allocation guarantee: with a
// pre-filled dist row and a pre-sized queue, a bounded BFS plus its
// touched-only reset allocates nothing.
func TestCSRBFSZeroAllocs(t *testing.T) {
	g := randomGraph(200, 0.05, 3)
	c := g.Frozen()
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		visited := c.BoundedBFSInto(src, 3, dist, queue)
		for _, v := range visited {
			dist[v] = -1
		}
		queue = visited[:0]
		src = (src + 1) % n
	})
	if allocs != 0 {
		t.Fatalf("bounded BFS + reset allocates %.1f objects per run, want 0", allocs)
	}
}

// TestCSRNeighborsZeroAllocs: the window accessor is zero-copy.
func TestCSRNeighborsZeroAllocs(t *testing.T) {
	g := randomGraph(100, 0.1, 4)
	c := g.Frozen()
	var sink int32
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < c.N(); v++ {
			for _, w := range c.Neighbors(v) {
				sink += w
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CSR neighbor iteration allocates %.1f objects per run, want 0", allocs)
	}
	_ = sink
}

// TestBoundedBFSIntoSkipMasksEdge: the skip-edge traversal equals a
// plain traversal on a copy with the edge actually removed.
func TestBoundedBFSIntoSkipMasksEdge(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(40, 0.1, seed)
		edges := g.Edges()
		if len(edges) == 0 {
			continue
		}
		e := edges[rng.Intn(len(edges))]
		removed := g.Clone()
		removed.RemoveEdge(e.U, e.V)
		n := g.N()
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		queue := make([]int, 0, n)
		for depth := 1; depth <= 3; depth++ {
			for src := 0; src < n; src++ {
				want := removed.BoundedBFS(src, depth)
				g.BoundedBFSIntoSkip(src, depth, dist, queue, e.U, e.V)
				for v := 0; v < n; v++ {
					if dist[v] != want[v] {
						t.Fatalf("seed %d src %d depth %d skip {%d,%d}: dist[%d] = %d, want %d",
							seed, src, depth, e.U, e.V, v, dist[v], want[v])
					}
					dist[v] = -1
				}
			}
		}
		if !g.HasEdge(e.U, e.V) {
			t.Fatal("skip traversal mutated the graph")
		}
	}
}

// TestFrozenEmptyAndSingleton: degenerate shapes freeze cleanly.
func TestFrozenEmptyAndSingleton(t *testing.T) {
	c := New(1).Frozen()
	if c.N() != 1 || c.M() != 0 || len(c.Neighbors(0)) != 0 {
		t.Fatalf("singleton CSR: n=%d m=%d", c.N(), c.M())
	}
}
