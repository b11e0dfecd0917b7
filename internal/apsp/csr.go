package apsp

import "repro/internal/graph"

// The bounded-BFS engines iterate a packed CSR snapshot of the graph
// (graph.CSR, built once per APSP build via Graph.Frozen): the graph's
// sorted int32 neighbor lists copied end to end into one contiguous
// array, immutable, so every worker of a striped build shares it while
// the source graph stays free to mutate. On top of that iteration form,
// two structural savings make the sweep scale to million-edge graphs:
//
//   - touched-only resets: the BFS returns its visit order, so the
//     distance row is cleaned in O(ball) instead of O(n) per source;
//   - ball-sized pair emission: only visited vertices are written to
//     the store, instead of scanning all n candidates per source.
//
// Together a full build costs O(sum of L-ball volumes), with zero
// allocations in the per-source loop (per-worker scratch is reused
// across sources; testing.AllocsPerRun asserts the bound).

// csrScratch holds one worker's reusable BFS buffers: the distance row
// (kept all -1 between sources) and the frontier queue.
type csrScratch struct {
	dist  []int32
	queue []int32
}

func newCSRScratch(n int) *csrScratch {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	return &csrScratch{dist: dist, queue: make([]int32, 0, n)}
}

// boundedCSRRange runs one depth-L-truncated BFS per source in
// [lo, hi), recording each reached pair {s, v} with v > s into m.
// Distances are symmetric, so striping disjoint source ranges over
// workers covers the full triangle with exactly one writer per cell.
// The two built-in backings are written through their packed triangles
// directly; foreign Store implementations fall back to Set.
func boundedCSRRange(c *graph.CSR, L int, m MutableStore, lo, hi int, sc *csrScratch) {
	switch t := m.(type) {
	case *CompactMatrix:
		boundedCSRCells(c, L, t.data, lo, hi, sc)
	case *Matrix:
		boundedCSRCells(c, L, t.data, lo, hi, sc)
	default:
		for s := lo; s < hi; s++ {
			visited := c.BoundedBFSInto(s, L, sc.dist, sc.queue)
			for _, v := range visited {
				if int(v) > s {
					m.Set(s, int(v), int(sc.dist[v]))
				}
				sc.dist[v] = -1
			}
			sc.queue = visited[:0]
		}
	}
}

// boundedCSRCells is the allocation-free inner loop shared by both
// packed-triangle backings (uint8 and int32 cells): BFS, emit the
// visited half-row, undo the distance writes — all proportional to the
// ball size, never to n.
func boundedCSRCells[T uint8 | int32](c *graph.CSR, L int, cells []T, lo, hi int, sc *csrScratch) {
	n := c.N()
	for s := lo; s < hi; s++ {
		visited := c.BoundedBFSInto(s, L, sc.dist, sc.queue)
		// Row s of the packed upper triangle: index(s, v) = base + v.
		base := s*(2*n-s-1)/2 - s - 1
		for _, v := range visited {
			if int(v) > s {
				cells[base+int(v)] = T(sc.dist[v])
			}
			sc.dist[v] = -1
		}
		sc.queue = visited[:0]
	}
}
