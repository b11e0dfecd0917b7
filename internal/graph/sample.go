package graph

import (
	"math/rand"
	"sort"
)

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabeled densely to 0..len(vertices)-1 in the order given, together
// with the mapping from new IDs back to the original IDs. Duplicate
// vertices panic.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	index := make(map[int]int, len(vertices))
	for i, v := range vertices {
		if _, dup := index[v]; dup {
			panic("graph: duplicate vertex in induced subgraph")
		}
		index[v] = i
	}
	var edges []Edge
	for i, v := range vertices {
		for _, w := range g.adj[v] {
			if j, ok := index[int(w)]; ok && i < j {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	sub, _ := build(len(vertices), edges)
	orig := make([]int, len(vertices))
	copy(orig, vertices)
	return sub, orig
}

// RandomVertexSample draws k distinct vertices uniformly at random using
// rng and returns the induced subgraph (the paper's Section 6.1 sampling
// procedure: "the edges in the sampled graph are the adjacent edges of
// the sampled nodes") plus the original vertex IDs. It panics if k
// exceeds the vertex count.
func (g *Graph) RandomVertexSample(k int, rng *rand.Rand) (*Graph, []int) {
	if k > g.N() {
		panic("graph: sample size exceeds vertex count")
	}
	perm := rng.Perm(g.N())[:k]
	sort.Ints(perm)
	sub, orig := g.InducedSubgraph(perm)
	return sub, orig
}

// RelabelByDegree returns an isomorphic copy of g whose vertices are
// renumbered in nonincreasing degree order (stable on vertex ID). This is
// occasionally convenient for golden tests and display.
func (g *Graph) RelabelByDegree() (*Graph, []int) {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(order[a]) > g.Degree(order[b])
	})
	return g.relabel(order)
}

// relabel renumbers vertices so that new vertex i is old vertex order[i].
func (g *Graph) relabel(order []int) (*Graph, []int) {
	index := make([]int, g.N())
	for newID, oldID := range order {
		index[oldID] = newID
	}
	edges := make([]Edge, 0, g.m)
	g.EachEdge(func(u, v int) {
		edges = append(edges, Edge{U: index[u], V: index[v]})
	})
	out, _ := build(g.N(), edges)
	orig := make([]int, len(order))
	copy(orig, order)
	return out, orig
}
