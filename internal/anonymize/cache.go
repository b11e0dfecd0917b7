package anonymize

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/opacity"
)

// removalCache is the greedy loop's removal-candidate list together
// with each candidate's net per-type count deltas, kept between steps so
// that a step re-runs the removal-delta kernel only for the candidates
// the last commit could have changed.
//
// The candidates are the original edges minus the removed ones, in
// canonical order. That is the candidate set of both heuristics: Rem
// never inserts, and Rem-Ins never re-removes an inserted edge
// (Algorithm 5 line 4). A real removal shrinks the list in place.
//
// Invalidation radius: RemovalDelta for {u', v'} reads the adjacency of
// vertices within 2L-2 of u' or v', and store cells whose endpoints are
// both within L-1 of u' or v'. A commit on {a, b} changes only the
// adjacency of a and b, and cells with one endpoint within L-1 of a and
// the other within L-1 of b, distances taken in the graph that contains
// {a, b}. So after every real commit, a BFS of radius 2L-2 from a and
// from b over that graph (before a removal, after an insertion) stamps
// every vertex whose candidates may have changed; a candidate is stale
// when either endpoint is stamped, and every other candidate's cached
// deltas are exactly what a recomputation would give. Look-ahead trial
// commits are undone before the next scan and never touch the cache.
type removalCache struct {
	edges []graph.Edge // candidates, canonical order
	span  []deltaSpan  // candidate i's deltas are arena[span[i].start:span[i].end]
	arena []opacity.TypeDelta
	spare []opacity.TypeDelta // the next compaction's arena
	// garbage counts arena entries no live span covers: replaced by a
	// recomputation or left by a dropped candidate.
	garbage int
	// primed is false until the first refresh has computed every
	// candidate.
	primed bool
	// stamp[v] == epoch marks v as within 2L-2 of an edge committed since
	// the last refresh.
	stamp  []uint32
	epoch  uint32
	radius int
	stale  []int32 // indices of this refresh's stale candidates
	dist   []int   // BFS scratch: all -1 between uses
	queue  []int   // BFS scratch with capacity n, so BFS never reallocates
	// recomputed counts candidates whose deltas were recomputed, for the
	// cache's hit-rate measurement.
	recomputed int64
}

// deltaSpan locates one candidate's deltas in the arena.
type deltaSpan struct{ start, end int32 }

// newRemovalCache seeds the cache with every edge of g as a candidate;
// nothing is computed until the first refresh.
func newRemovalCache(g *graph.Graph, l int) removalCache {
	n := g.N()
	c := removalCache{
		edges:  g.Edges(),
		stamp:  make([]uint32, n),
		epoch:  1,
		radius: 2*l - 2,
		dist:   make([]int, n),
		queue:  make([]int, 0, n),
	}
	c.span = make([]deltaSpan, len(c.edges))
	for i := range c.dist {
		c.dist[i] = -1
	}
	return c
}

// stampAround marks every vertex within the invalidation radius of e's
// endpoints in g, which must be the graph that contains e.
func (c *removalCache) stampAround(g *graph.Graph, e graph.Edge) {
	if !c.primed {
		return // every candidate is stale anyway
	}
	for _, src := range [2]int{e.U, e.V} {
		reached := g.BoundedBFSInto(src, c.radius, c.dist, c.queue)
		for _, v := range c.queue[:reached+1] {
			c.stamp[v] = c.epoch
			c.dist[v] = -1
		}
	}
}

// drop removes a committed removal from the candidates.
func (c *removalCache) drop(e graph.Edge) {
	i, ok := slices.BinarySearchFunc(c.edges, e, func(a, b graph.Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	if !ok {
		panic("anonymize: committed removal is not a candidate")
	}
	c.garbage += int(c.span[i].end - c.span[i].start)
	c.edges = slices.Delete(c.edges, i, i+1)
	c.span = slices.Delete(c.span, i, i+1)
}

// deltas returns candidate i's cached net type deltas.
func (c *removalCache) deltas(i int) []opacity.TypeDelta {
	sp := c.span[i]
	return c.arena[sp.start:sp.end]
}

// refreshRemovalDeltas brings every candidate's cached deltas up to
// date with the current graph: it collects the stale candidates and
// recomputes their deltas on the scan lanes (in parallel when
// configured).
func (s *state) refreshRemovalDeltas() {
	c := &s.cands
	c.stale = c.stale[:0]
	for i, e := range c.edges {
		if !c.primed || c.stamp[e.U] == c.epoch || c.stamp[e.V] == c.epoch {
			c.stale = append(c.stale, int32(i))
		}
	}
	c.primed = true
	if c.epoch++; c.epoch == 0 { // wrapped: forget every old stamp
		clear(c.stamp)
		c.epoch = 1
	}
	if len(c.stale) == 0 {
		return
	}
	c.recomputed += int64(len(c.stale))
	lanes := s.runLanes(laneRemovalDeltas, len(c.stale))

	// Each lane holds the deltas of one contiguous run of c.stale, in
	// order. Fresh deltas go to the arena's tail; the spans they replace
	// become garbage, reclaimed once it outweighs the live entries.
	fresh := 0
	for _, ws := range lanes {
		fresh += len(ws.types)
	}
	c.arena = slices.Grow(c.arena, fresh)
	lane := 0
	for k, i := range c.stale {
		for k >= lanes[lane].hi {
			lane++
		}
		old := c.span[i]
		c.garbage += int(old.end - old.start)
		start := int32(len(c.arena))
		c.arena = append(c.arena, lanes[lane].freshDeltas(k)...)
		c.span[i] = deltaSpan{start: start, end: int32(len(c.arena))}
	}
	if 2*c.garbage > len(c.arena) {
		c.compact()
	}
}

// compact rewrites the arena with the live spans only, in candidate
// order.
func (c *removalCache) compact() {
	next := c.spare[:0]
	for i := range c.edges {
		start := int32(len(next))
		next = append(next, c.deltas(i)...)
		c.span[i] = deltaSpan{start: start, end: int32(len(next))}
	}
	c.spare, c.arena = c.arena, next
	c.garbage = 0
}

// recomputeStale is the removal-delta lane body: it recomputes the
// deltas of stale candidates c.stale[lo:hi] into the lane's buffer.
func (s *state) recomputeStale(ws *workerState, lo, hi int) {
	ws.lo, ws.hi = lo, hi
	ws.types, ws.ends = ws.types[:0], ws.ends[:0]
	for _, i := range s.cands.stale[lo:hi] {
		ws.changes = appendRemovalChanges(ws.changes[:0], s.g, s.m, s.cands.edges[i], ws.scratch)
		ws.types = s.tr.AppendTypeDeltas(ws.types, ws.changes, ws.deltas)
		ws.ends = append(ws.ends, int32(len(ws.types)))
	}
}

// freshDeltas returns the deltas the lane recomputed for stale
// candidate c.stale[k].
func (ws *workerState) freshDeltas(k int) []opacity.TypeDelta {
	j := k - ws.lo
	start := int32(0)
	if j > 0 {
		start = ws.ends[j-1]
	}
	return ws.types[start:ws.ends[j]]
}
