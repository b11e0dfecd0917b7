// Package graph provides the simple-graph substrate used throughout the
// L-opacity reproduction: an undirected, unweighted graph without
// self-loops or multiple edges (the data model of the paper's Section 4),
// together with traversal, sampling, structural statistics, and
// edge-list input/output.
//
// Vertices are dense integers in [0, N()). Adjacency is a sorted int32
// neighbor list per vertex, so every iteration — over vertices,
// neighbors, or edges — runs in ascending order and seeded experiments
// are reproducible bit-for-bit.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is a mutable simple undirected graph over the vertex set
// {0, ..., n-1}. The zero value is not usable; construct with New or one
// of the decoding helpers.
//
// Adjacency is one sorted, duplicate-free int32 neighbor list per
// vertex. Membership tests are a binary search, insertion and deletion
// shift the tail of two short lists, and every traversal walks packed
// memory in ascending order — the same layout Frozen copies into a CSR,
// so the mutable working graph of the anonymization loop scans like a
// frozen snapshot.
type Graph struct {
	adj [][]int32 // adj[v] ascending, no duplicates, no v itself
	m   int
}

// New returns an empty simple graph on n vertices and no edges.
// It panics if n is negative or exceeds the int32 vertex space.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	if int64(n) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: vertex count %d exceeds int32 index space", n))
	}
	return &Graph{adj: make([][]int32, n)}
}

// FromEdges builds a graph on n vertices from the given edge list.
// Duplicate edges and self-loops are rejected with a panic, since they
// indicate a malformed input for a simple graph.
func FromEdges(n int, edges []Edge) *Graph {
	g, dropped := build(n, edges)
	if dropped > 0 {
		panic(fmt.Sprintf("graph: %d duplicate or invalid edges among %d", dropped, len(edges)))
	}
	return g
}

// FromPairs bulk-builds a graph on n vertices from [u v] pairs. Unlike
// FromEdges it does not panic: self-loops, out-of-range endpoints, and
// duplicates are dropped, exactly as edge-by-edge AddEdge calls would
// drop them, and the adjacency is allocated once.
func FromPairs(n int, pairs [][2]int) *Graph {
	edges := make([]Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = Edge{U: p[0], V: p[1]}
	}
	g, _ := build(n, edges)
	return g
}

// build is the bulk constructor behind FromEdges, FromPairs and the
// decoders: it appends both directions of every edge, then sorts each
// neighbor list once, instead of paying an ordered insert per edge. The
// lists are carved from one backing array, each list's capacity ending
// where the next begins, so a later insert reallocates that list alone.
// Self-loops, out-of-range endpoints, and duplicates (in either
// orientation) are dropped; dropped counts them.
func build(n int, edges []Edge) (*Graph, int) {
	g := New(n)
	deg := make([]int32, n)
	total := 0
	for _, e := range edges {
		if g.inRange(e.U, e.V) {
			deg[e.U]++
			deg[e.V]++
			total += 2
		}
	}
	flat := make([]int32, total)
	off := 0
	for v, d := range deg {
		end := off + int(d)
		g.adj[v] = flat[off:off:end]
		off = end
	}
	for _, e := range edges {
		if !g.inRange(e.U, e.V) {
			continue
		}
		g.adj[e.U] = append(g.adj[e.U], int32(e.V))
		g.adj[e.V] = append(g.adj[e.V], int32(e.U))
	}
	half := 0
	for v, nbrs := range g.adj {
		slices.Sort(nbrs)
		g.adj[v] = slices.Compact(nbrs)
		half += len(g.adj[v])
	}
	g.m = half / 2
	// Every in-range edge was appended once, so whatever Compact removed
	// was a duplicate.
	return g, len(edges) - g.m
}

// inRange reports whether {u, v} is a valid simple-graph edge slot:
// distinct endpoints, both vertices of g.
func (g *Graph) inRange(u, v int) bool {
	return u != v && u >= 0 && v >= 0 && u < len(g.adj) && v < len(g.adj)
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the current degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Degrees returns a copy of the current degree sequence, indexed by vertex.
func (g *Graph) Degrees() []int {
	d := make([]int, len(g.adj))
	for v, nbrs := range g.adj {
		d[v] = len(nbrs)
	}
	return d
}

// HasEdge reports whether the undirected edge {u, v} is present.
// Out-of-range endpoints and self-loops report false.
func (g *Graph) HasEdge(u, v int) bool {
	if !g.inRange(u, v) {
		return false
	}
	// Search the shorter list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.adj[u], int32(v))
	return ok
}

// AddEdge inserts the undirected edge {u, v}. It returns false (and leaves
// the graph unchanged) if the edge already exists, is a self-loop, or has
// an endpoint out of range.
func (g *Graph) AddEdge(u, v int) bool {
	if !g.inRange(u, v) {
		return false
	}
	i, ok := slices.BinarySearch(g.adj[u], int32(v))
	if ok {
		return false
	}
	g.adj[u] = slices.Insert(g.adj[u], i, int32(v))
	j, _ := slices.BinarySearch(g.adj[v], int32(u))
	g.adj[v] = slices.Insert(g.adj[v], j, int32(u))
	g.m++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}. It returns false if the
// edge was not present.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.inRange(u, v) {
		return false
	}
	i, ok := slices.BinarySearch(g.adj[u], int32(v))
	if !ok {
		return false
	}
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	j, _ := slices.BinarySearch(g.adj[v], int32(u))
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	return true
}

// Neighbors returns the neighbors of v in ascending order. The returned
// slice is freshly allocated and safe to retain.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.adj[v]))
	for i, w := range g.adj[v] {
		out[i] = int(w)
	}
	return out
}

// EachNeighbor calls fn for every neighbor of v in ascending order. It
// is the allocation-free counterpart of Neighbors; fn must not mutate
// v's adjacency.
func (g *Graph) EachNeighbor(v int, fn func(w int)) {
	for _, w := range g.adj[v] {
		fn(int(w))
	}
}

// Edges returns all edges in canonical (U < V) form, sorted
// lexicographically. The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.EachEdge(func(u, v int) {
		out = append(out, Edge{U: u, V: v})
	})
	return out
}

// EachEdge calls fn once per undirected edge with u < v, in canonical
// (lexicographic) order. fn must not mutate the graph.
func (g *Graph) EachEdge(fn func(u, v int)) {
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// Clone returns a deep copy of the graph. The copied lists are carved
// from one backing array, each list's capacity ending where the next
// begins, so a later insert reallocates that list alone.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	flat := make([]int32, 2*g.m)
	off := 0
	for v, nbrs := range g.adj {
		end := off + len(nbrs)
		c.adj[v] = append(flat[off:off:end], nbrs...)
		off = end
	}
	return c
}

// Equal reports whether g and h have identical vertex counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.adj {
		if !slices.Equal(g.adj[u], h.adj[u]) {
			return false
		}
	}
	return true
}

// MaxDegree returns the largest degree in the graph, or 0 for an empty
// vertex set.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// DegreeHistogram returns counts[d] = number of vertices of degree d,
// with the slice sized MaxDegree()+1 (length 1 for an edgeless graph).
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.MaxDegree()+1)
	for _, nbrs := range g.adj {
		counts[len(nbrs)]++
	}
	return counts
}

// Validate checks internal consistency (sorted duplicate-free neighbor
// lists, symmetry of adjacency, edge count, absence of self-loops) and
// returns a descriptive error for the first violation found. It is
// intended for tests and for auditing long mutation sequences.
func (g *Graph) Validate() error {
	m2 := 0
	for u, nbrs := range g.adj {
		for i, w := range nbrs {
			v := int(w)
			if i > 0 && nbrs[i-1] >= w {
				return fmt.Errorf("graph: neighbor list of %d not strictly ascending at %d (%d after %d)", u, i, w, nbrs[i-1])
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph: neighbor %d of %d out of range", v, u)
			}
			if _, ok := slices.BinarySearch(g.adj[v], int32(u)); !ok {
				return fmt.Errorf("graph: asymmetric edge %d-%d", u, v)
			}
			m2++
		}
	}
	if m2 != 2*g.m {
		return fmt.Errorf("graph: edge count book %d != adjacency half-sum %d", g.m, m2/2)
	}
	return nil
}

// String returns a short human-readable summary, e.g. "graph{n=7 m=10}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}
