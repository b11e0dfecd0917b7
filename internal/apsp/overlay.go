package apsp

import (
	"fmt"
	"maps"
	"slices"
)

// Overlay is the copy-on-write MutableStore: a read-only base plus a
// sparse map of dirty cells. It is what lets a writable anonymization
// run seed from a cached (possibly file-backed) store without the full
// O(n²/2) heap Clone the serving layer used to pay up front — creating
// an overlay is O(1), each write costs one map entry, and memory grows
// with the number of *mutated* cells, which for the paper's greedy and
// annealing heuristics is proportional to edits × ball volume, not to
// the triangle.
//
// The base is never written; any Store works, including the read-only
// PagedStore view, which is the composition that keeps
// a writable run's peak heap at page-cache budget + O(dirty cells)
// even when the triangle itself exceeds RAM.
type Overlay struct {
	base Store
	n    int
	far  int
	// dirty maps packed triangle index -> overridden cell value. Indexes
	// reach n(n-1)/2 ≈ 5e9 at n = 100k, so the key is int64 by contract
	// even though int is 64-bit on every supported platform.
	dirty map[int64]int32
	// dirtyRows[min(i,j)] is true when any cell of that row was ever
	// written. Reads of clean rows — the overwhelming majority during
	// candidate scans — skip the map lookup entirely.
	dirtyRows []bool
}

// Compile-time interface check: the overlay is the mutable view; its
// base stays behind the read-only contract.
var _ MutableStore = (*Overlay)(nil)

// NewOverlay returns an empty copy-on-write view over base. It is O(1):
// no cell is copied until written.
func NewOverlay(base Store) *Overlay {
	return &Overlay{
		base:      base,
		n:         base.N(),
		far:       base.Far(),
		dirty:     make(map[int64]int32),
		dirtyRows: make([]bool, base.N()),
	}
}

// Base returns the read-only store the overlay shadows.
func (o *Overlay) Base() Store { return o.base }

// N returns the number of vertices.
func (o *Overlay) N() int { return o.n }

// L returns the distance threshold the store is capped at.
func (o *Overlay) L() int { return o.base.L() }

// Far returns the sentinel L+1.
func (o *Overlay) Far() int { return o.far }

// Dirty returns the number of cells currently overridden — the
// overlay's memory footprint is proportional to this, not to n².
func (o *Overlay) Dirty() int { return len(o.dirty) }

// Depth returns the number of overlay layers stacked on the first
// non-overlay base: 1 for an overlay directly over a heap or
// file-backed store, 2 for an overlay over that, and so on. Repair
// chains (each graph mutation layering one more overlay) use it to
// decide when to Compact instead of growing the read path another
// indirection.
func (o *Overlay) Depth() int {
	d := 1
	for b, ok := o.base.(*Overlay); ok; b, ok = b.base.(*Overlay) {
		d++
	}
	return d
}

// dirtyBytes estimates the heap pinned by the dirty set for the
// Footprint gauges: map overhead per entry plus the row bitmap.
func (o *Overlay) dirtyBytes() int64 {
	// ~48 bytes/entry covers the int64 key, int32 value, and Go map
	// bucket overhead; precise enough for an operator gauge.
	return 48*int64(len(o.dirty)) + int64(len(o.dirtyRows))
}

// Get returns the capped distance for the unordered pair {i, j}: the
// overridden value when the cell is dirty, the base's otherwise.
func (o *Overlay) Get(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i >= 0 && i < o.n && o.dirtyRows[i] {
		if d, ok := o.dirty[pairIndex(o.n, i, j)]; ok {
			return int(d)
		}
	}
	return o.base.Get(i, j)
}

// Set stores the capped distance d for the unordered pair {i, j} in the
// dirty set. Values above Far() are clamped to Far(); d < 1 panics.
// Writing a cell back to its base value removes the override, so a
// mutate-then-undo cycle (the annealer's rejected moves, the greedy
// scorer's probe/revert) leaves the overlay as sparse as it started.
func (o *Overlay) Set(i, j, d int) {
	if d > o.far {
		d = o.far
	}
	if d < 1 {
		panic(fmt.Sprintf("apsp: distance %d < 1 for distinct pair (%d, %d)", d, i, j))
	}
	idx := pairIndex(o.n, i, j)
	if o.base.Get(i, j) == d {
		delete(o.dirty, idx)
		return
	}
	o.dirty[idx] = int32(d)
	if i > j {
		i = j
	}
	o.dirtyRows[i] = true
}

// EachPair calls fn for every unordered pair i < j in row-major order,
// serving dirty cells from the overlay and everything else from the
// base. A never-written overlay walks its base's rows untouched.
func (o *Overlay) EachPair(fn func(i, j, d int)) { rowsOf(o).eachPair(fn) }

// Clone returns an independent overlay over the same (shared, read-only)
// base: the dirty set is copied, so mutations of the clone and the
// original never observe each other. Cost is O(dirty), not O(n²) —
// which restores the cheap many-runs-from-one-cached-store pattern
// without the full-triangle copies it used to imply.
func (o *Overlay) Clone() Store {
	c := *o
	c.dirty, c.dirtyRows = maps.Clone(o.dirty), slices.Clone(o.dirtyRows)
	return &c
}

// Compact materializes the overlay into a heap store of the base's
// kind — the escape hatch for callers that need a standalone artifact
// (serialization, long-lived caching) rather than a view. Over a heap
// base it costs one triangle copy plus O(dirty), not a walk over every
// pair (see Copy).
func (o *Overlay) Compact() MutableStore { return rowsOf(o).heapCopy() }
