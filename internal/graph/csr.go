package graph

import (
	"fmt"
	"math"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph's
// adjacency: the graph's sorted int32 neighbor lists packed end to end
// into one slice, indexed by a per-vertex offset table. It is the
// iteration form of the bulk distance engines — one contiguous array
// instead of n separately allocated lists, and an immutable value that
// goroutines can share while the source graph keeps mutating.
//
// A CSR is a point-in-time snapshot: later mutations of the source
// Graph are not reflected. Build one per bulk computation with
// Graph.Frozen, share it freely across goroutines (all methods are
// read-only), and let it go when the computation ends.
type CSR struct {
	offsets   []int32 // len n+1; vertex v's window is neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32 // len 2m, ascending within each window
}

// Frozen returns a CSR snapshot of the graph's current adjacency.
// It panics when the vertex count or the packed neighbor-array length
// 2m exceeds the int32 index space.
func (g *Graph) Frozen() *CSR {
	n := g.N()
	if int64(n) > math.MaxInt32 || int64(2*g.m) > math.MaxInt32 {
		panic(fmt.Sprintf("graph: n=%d m=%d exceeds CSR int32 index space", n, g.m))
	}
	c := &CSR{
		offsets:   make([]int32, n+1),
		neighbors: make([]int32, 2*g.m),
	}
	for v, nbrs := range g.adj {
		c.offsets[v+1] = c.offsets[v] + int32(copy(c.neighbors[c.offsets[v]:], nbrs))
	}
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of (undirected) edges.
func (c *CSR) M() int { return len(c.neighbors) / 2 }

// Degree returns the degree of vertex v.
func (c *CSR) Degree(v int) int { return int(c.offsets[v+1] - c.offsets[v]) }

// Neighbors returns v's neighbor window, ascending. The slice aliases
// the CSR's backing array — zero-copy, zero-alloc — and must be
// treated as read-only.
func (c *CSR) Neighbors(v int) []int32 {
	return c.neighbors[c.offsets[v]:c.offsets[v+1]]
}

// BoundedBFSInto runs a BFS from src truncated at depth maxDepth,
// writing hop distances into dist. dist must have length N() and be
// pre-filled with -1; queue is reused as the work list (grown as
// needed). It returns the visit order — src first, then every vertex
// reached within maxDepth — which is exactly the set of dist entries
// written, so the caller can undo its writes in O(visited):
//
//	visited := c.BoundedBFSInto(src, L, dist, queue)
//	for _, v := range visited {
//	    ... use dist[v] ...
//	    dist[v] = -1
//	}
//	queue = visited[:0]
//
// Touched-only reset is what makes a full APSP sweep O(sum of ball
// sizes) instead of O(n) per source; with a pre-sized queue the loop
// performs zero allocations (asserted by testing.AllocsPerRun).
func (c *CSR) BoundedBFSInto(src, maxDepth int, dist []int32, queue []int32) []int32 {
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	md := int32(maxDepth)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du >= md {
			continue
		}
		for _, w := range c.neighbors[c.offsets[u]:c.offsets[u+1]] {
			if dist[w] < 0 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}
