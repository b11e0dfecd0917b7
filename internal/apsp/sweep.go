package apsp

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// The build sweep. Every full build — Build for heap stores,
// StreamBuild and BuildToFile for snapshot files — runs the one
// bit-parallel BFS below over a frozen CSR snapshot of the graph.
//
// Sources are taken in batches of 64. Each vertex carries one word
// whose bit i records whether source base+i has reached it, so one
// level expansion advances 64 BFS trees with one word operation per
// arc. A batch walks only the vertices its trees have reached (an
// active list per level and a touched list for the reset), so it costs
// the union of its 64 L-balls times the levels, never O(n) per level.
//
// The sources of a batch own rows [base, base+64) of the packed upper
// triangle, which is one contiguous span of cells. The sweep writes
// each reached pair {s, v}, v > s, straight into the span the caller
// provides: the triangle itself for heap builds, or a block buffer the
// stream flushes in order. Every cell has exactly one writer, so
// batches dealt to concurrent workers need no locks; on the compact
// backing each cell is its own byte, a distinct memory location under
// the Go memory model.

// batchSize is the number of sources one BFS word carries.
const batchSize = 64

// autoParallelMinN is the vertex count from which a build with unset
// Workers deals its batches over all CPUs. Below it the sequential
// sweep finishes before the goroutines would be scheduled; above it
// the build is the dominant cost of a request and should use the
// machine.
const autoParallelMinN = 4096

// sweepScratch is one worker's reusable BFS state. The seen and next
// words are kept all zero between batches; a frontier word is written
// whenever its vertex joins the active list, before it is read, so it
// needs no reset. The lists are reset by reslicing.
type sweepScratch struct {
	seen, frontier, next     []uint64
	active, reached, touched []int32
	// rowBase[i] is the offset into the caller's span of the
	// (virtual) cell {s, 0} of source s = base+i, so cell {s, v} sits
	// at rowBase[i]+v.
	rowBase [batchSize]int
}

func newSweepScratch(n int) *sweepScratch {
	return &sweepScratch{
		seen:     make([]uint64, n),
		frontier: make([]uint64, n),
		next:     make([]uint64, n),
		active:   make([]int32, 0, n),
		reached:  make([]int32, 0, n),
		touched:  make([]int32, 0, n),
	}
}

// sweeper holds one build's snapshot, threshold, and per-worker
// scratch, so a stream build that sweeps its triangle block by block
// allocates the O(n) scratch once.
type sweeper struct {
	c       *graph.CSR
	l       int
	scratch []*sweepScratch
}

// newSweeper prepares a sweep of c at threshold L. workers follows
// BuildOptions.Workers: values below 2 run sequentially, except that
// zero on graphs of at least autoParallelMinN vertices selects one
// worker per CPU. More workers than CPUs or than batches never help,
// so both bound the count.
func newSweeper(c *graph.CSR, L, workers int) *sweeper {
	n := c.N()
	if workers == 0 && n >= autoParallelMinN {
		workers = runtime.NumCPU()
	}
	workers = min(workers, runtime.NumCPU(), (n+batchSize-1)/batchSize)
	workers = max(workers, 1)
	sw := &sweeper{c: c, l: L, scratch: make([]*sweepScratch, workers)}
	for i := range sw.scratch {
		sw.scratch[i] = newSweepScratch(n)
	}
	return sw
}

// sweepRows writes the L-capped distances of rows [lo, hi) into cells,
// which holds exactly those rows' cells, already set to Far. The rows
// are cut into batches of 64 from lo, and the batches are dealt to the
// sweeper's workers in ascending order; the result does not depend on
// the worker count.
func sweepRows[T cell](sw *sweeper, cells []T, lo, hi int) {
	if sw.l == 0 || hi <= lo {
		return
	}
	batches := (hi - lo + batchSize - 1) / batchSize
	workers := min(len(sw.scratch), batches)
	if workers == 1 {
		for b := 0; b < batches; b++ {
			sweepBatch(sw.c, sw.l, cells, lo, lo+b*batchSize, hi, sw.scratch[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, sc := range sw.scratch[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int(next.Add(1) - 1); b < batches; b = int(next.Add(1) - 1) {
				sweepBatch(sw.c, sw.l, cells, lo, lo+b*batchSize, hi, sc)
			}
		}()
	}
	wg.Wait()
}

// sweepBatch runs the bit-parallel BFS from sources [base, min(base+64,
// hi)) to depth L and writes every reached pair {s, v} with v > s into
// cells, the span of rows [lo, hi). A pair is discovered exactly once,
// at its true BFS level, because bits already seen at a vertex are
// masked out of every expansion into it.
func sweepBatch[T cell](c *graph.CSR, L int, cells []T, lo, base, hi int, sc *sweepScratch) {
	n := c.N()
	k := min(batchSize, hi-base)
	span := rowOffset(n, lo)
	active, touched := sc.active[:0], sc.touched[:0]
	for i := 0; i < k; i++ {
		s := base + i
		sc.rowBase[i] = rowOffset(n, s) - s - 1 - span
		sc.seen[s] = 1 << uint(i)
		sc.frontier[s] = 1 << uint(i)
		active = append(active, int32(s))
		touched = append(touched, int32(s))
	}
	reached := sc.reached[:0]
	for d := 1; d <= L && len(active) > 0; d++ {
		reached = reached[:0]
		for _, v := range active {
			fv := sc.frontier[v]
			for _, w := range c.Neighbors(int(v)) {
				if nb := fv &^ sc.seen[w]; nb != 0 {
					if sc.next[w] == 0 {
						reached = append(reached, w)
					}
					sc.next[w] |= nb
				}
			}
		}
		for _, w := range reached {
			nb := sc.next[w]
			sc.next[w] = 0
			if sc.seen[w] == 0 {
				touched = append(touched, w)
			}
			sc.seen[w] |= nb
			sc.frontier[w] = nb
			// Only sources s < w own the cell {s, w}: when w falls
			// inside the batch, mask off the sources at or above it.
			if rel := int(w) - base; rel < batchSize {
				if rel <= 0 {
					continue
				}
				nb &= 1<<uint(rel) - 1
			}
			for ; nb != 0; nb &= nb - 1 {
				cells[sc.rowBase[bits.TrailingZeros64(nb)]+int(w)] = T(d)
			}
		}
		active, reached = reached, active
	}
	for _, v := range touched {
		sc.seen[v] = 0
	}
	sc.active, sc.reached, sc.touched = active[:0], reached[:0], touched[:0]
}
