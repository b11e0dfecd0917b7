package apsp

import "fmt"

// Store is the read view every layer above this package programs
// against: an L-capped geodesic distance store over a fixed vertex set.
// Entry (i, j), i != j, is the exact distance d(i, j) when d(i, j) <= L
// and the sentinel Far() = L+1 otherwise. The diagonal is implicit
// (distance 0) and never stored.
//
// Two types implement it. Triangle is the heap store, one upper
// triangle written once for two cell widths: uint8 (KindCompact, every
// store with L <= MaxCompactL — a capped distance never exceeds L+1,
// so one byte suffices) and int32 (KindPacked, every L above it).
// PagedStore is a read-only window over a persisted snapshot file
// through a bounded page cache, for triangles larger than RAM.
// Mutation is a separate contract: see MutableStore and Overlay.
type Store interface {
	// N returns the number of vertices.
	N() int
	// L returns the distance threshold the store is capped at.
	L() int
	// Far returns the sentinel L+1 stored for pairs whose geodesic
	// distance exceeds L (including unreachable pairs).
	Far() int
	// Get returns the capped distance for the unordered pair {i, j},
	// i != j.
	Get(i, j int) int
	// EachPair calls fn for every unordered pair i < j in row-major
	// order with the stored capped distance.
	EachPair(fn func(i, j, d int))
	// Clone returns an independent deep, heap-resident copy: mutating
	// the clone never affects the original. A file-backed PagedStore
	// materializes the full triangle; prefer NewOverlay when the goal is
	// a mutable view rather than an independent heap copy.
	Clone() Store
}

// MutableStore is the write view: everything a Store offers plus cell
// writes. The heap Triangle and the sparse Overlay implement it; the
// file-backed PagedStore deliberately does not — wrapping it in an
// Overlay is the only mutation path, which is what keeps writable runs
// from ever needing the full triangle in heap.
type MutableStore interface {
	Store
	// Set stores the capped distance d for the unordered pair {i, j}.
	// Values above Far() are clamped to Far(); d < 1 panics.
	Set(i, j, d int)
}

// Kind names a Store backing. A build never takes one: KindFor derives
// the backing from L, so a store's identity is its graph and threshold
// alone. The HTTP service still accepts and validates the names as
// hints.
type Kind int

const (
	// KindCompact stores one byte per pair: 4x smaller than the packed
	// int32 layout and cache-friendlier on every scan. It is the
	// backing of every threshold up to MaxCompactL, which covers every
	// threshold the privacy model uses in practice.
	KindCompact Kind = iota
	// KindPacked is the int32 layout; it has no threshold ceiling and
	// is the backing of every L above MaxCompactL.
	KindPacked
	// KindPaged names the read-only PagedStore view: a snapshot file
	// windowed through a bounded LRU page cache. It is a residency, not
	// a buildable backing: NewStore panics on it, and the view reports
	// its payload's kind.
	KindPaged
)

// String names the kind as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case KindCompact:
		return "compact"
	case KindPacked:
		return "packed"
	case KindPaged:
		return "paged"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a case-sensitive store name ("compact", "packed",
// "paged"; "" selects compact). The HTTP service uses it to reject
// unknown names. "mapped" and "mmap", the names of a retired
// memory-mapped view, resolve to KindPaged, so older requests and
// legacy snapshot file names keep parsing.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "compact", "uint8":
		return KindCompact, nil
	case "packed", "int32":
		return KindPacked, nil
	case "paged", "mapped", "mmap":
		return KindPaged, nil
	}
	return 0, fmt.Errorf("apsp: unknown store %q (want compact, packed, or paged)", s)
}

// KindFor returns the backing of every built store at threshold L:
// compact up to MaxCompactL, packed above it.
func KindFor(L int) Kind {
	if L > MaxCompactL {
		return KindPacked
	}
	return KindCompact
}

// NewStore returns an all-Far store for n vertices and threshold L with
// the given backing. It panics on invalid dimensions and on
// KindCompact with L > MaxCompactL; KindFor(L) is always legal.
func NewStore(n, L int, k Kind) MutableStore {
	switch k {
	case KindCompact, KindPacked:
		return newTriangle(n, L, k)
	case KindPaged:
		panic("apsp: paged stores are opened from snapshot files (OpenPagedStore), not built")
	}
	panic(fmt.Sprintf("apsp: unknown store kind %d", int(k)))
}

// KindOf reports the backing of a store, defaulting to KindFor(L) for
// foreign implementations. A paged store reports its payload kind (what
// Clone decodes into), not KindPaged, and an overlay reports its base's
// kind, so serialization built on KindOf treats every view as its heap
// twin.
func KindOf(s Store) Kind {
	switch t := s.(type) {
	case heapTriangle:
		return t.kind()
	case *PagedStore:
		return t.Kind()
	case *Overlay:
		return KindOf(t.Base())
	}
	return KindFor(s.L())
}

// BackingName names the concrete representation of a store for
// operator-facing accounting ("compact", "packed", "paged", "overlay")
// — unlike KindOf it does NOT fold views to their heap twins, because
// resident-bytes gauges exist precisely to distinguish a paged view
// from a heap copy of the same snapshot.
func BackingName(s Store) string {
	switch t := s.(type) {
	case heapTriangle:
		return t.kind().String()
	case *PagedStore:
		return "paged"
	case *Overlay:
		return "overlay"
	}
	return "foreign"
}

// Footprint reports how many bytes a store pins in heap and how many
// live in its backing file. Heap backings are all heap and no file; a
// paged store pins exactly its resident pages; an overlay adds its
// dirty set on top of its base. Foreign implementations report zero,
// not an estimate.
func Footprint(s Store) (heapBytes, fileBytes int64) {
	switch t := s.(type) {
	case heapTriangle:
		return int64(cellCount(uint64(t.N()))) * t.kind().width(), 0
	case *PagedStore:
		return t.ResidentBytes(), t.FileBytes()
	case *Overlay:
		h, f := Footprint(t.Base())
		return h + t.dirtyBytes(), f
	}
	return 0, 0
}

// Within reports whether the pair {i, j} is at geodesic distance <= L.
func Within(s Store, i, j int) bool { return s.Get(i, j) <= s.L() }

// Clone returns a deep copy of s with the same backing.
func Clone(s Store) Store { return s.Clone() }

// Copy overwrites dst with the contents of src, which must have the
// same dimensions; the backings may differ. Every cell lands under
// Set's rules: values above Far() are clamped, values below 1 panic.
//
// The cost follows src's backing. A heap source of dst's kind is one
// slice copy; a paged source whose payload is dst's kind is one pass
// over the snapshot bytes; an overlay copied into a heap store
// copies its base that way and then writes its dirty cells, so
// flattening an overlay chain costs one triangle copy plus O(dirty).
// Every other pairing walks EachPair.
func Copy(dst MutableStore, src Store) {
	if dst.N() != src.N() || dst.L() != src.L() {
		panic("apsp: Copy dimension mismatch")
	}
	// A file cell below 1 panics only if no overlay layer masks it, as
	// under the EachPair walk: check the ones still in place.
	for _, idx := range copyCells(dst, src) {
		i, j := trianglePair(dst.N(), idx)
		if d := dst.Get(i, j); d < 1 {
			panic(fmt.Sprintf("apsp: distance %d < 1 for distinct pair (%d, %d)", d, i, j))
		}
	}
}

// copyCells does Copy's work. A flat copy out of a snapshot file writes
// cells below 1 as read and returns their triangle indices, ascending,
// for Copy to check once the dirty cells of any overlay are in.
func copyCells(dst MutableStore, src Store) (bad []int64) {
	h, heap := dst.(heapTriangle)
	switch s := src.(type) {
	case *Overlay:
		if heap {
			bad = copyCells(dst, s.base)
			for idx, v := range s.dirty {
				i, j := trianglePair(s.n, idx)
				dst.Set(i, j, int(v))
			}
			return bad
		}
	case heapTriangle:
		if heap && h.copyFrom(s) {
			return nil
		}
	case *PagedStore:
		if heap && s.kind == h.kind() {
			return s.copyTo(h)
		}
	}
	src.EachPair(func(i, j, d int) { dst.Set(i, j, d) })
	return nil
}

// Equal reports whether two stores describe identical capped-distance
// matrices: same vertex count, same threshold, same entries. The
// backing kinds need not match — a compact store equals its packed
// twin, which is what the cross-store validation tests assert.
// Same-backing comparisons run as flat slice compares; mixed backings
// fall back to a pairwise walk that stops at the first mismatch.
func Equal(a, b Store) bool {
	if a.N() != b.N() || a.L() != b.L() {
		return false
	}
	if x, ok := a.(heapTriangle); ok {
		if eq, ok := x.equalCells(b); ok {
			return eq
		}
	}
	n := a.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a.Get(i, j) != b.Get(i, j) {
				return false
			}
		}
	}
	return true
}

// CountWithin returns the number of unordered pairs at distance <= L.
func CountWithin(s Store) int {
	count := 0
	l := s.L()
	s.EachPair(func(_, _, d int) {
		if d <= l {
			count++
		}
	})
	return count
}

// CountWithinByClass is CountWithin split by vertex class: for every
// pair i < j at distance <= L it adds 1 to cnt[class[i]*k+class[j]].
// class holds one value in [0, k) per vertex and cnt needs k*k cells;
// counts are added to what cnt already holds. The count is ordered by
// row, so a caller folding it into unordered class pairs sums the
// cells (a, b) and (b, a).
//
// A heap triangle is counted straight off its rows; an overlay
// counts its base and then corrects once per dirty cell; every other
// backing is walked through EachPair.
func CountWithinByClass(s Store, class []int32, k int, cnt []int64) {
	if len(class) != s.N() || len(cnt) < k*k {
		panic(fmt.Sprintf("apsp: CountWithinByClass got %d classes for n=%d and %d counters for k=%d", len(class), s.N(), len(cnt), k))
	}
	switch t := s.(type) {
	case heapTriangle:
		t.countWithinByClass(class, k, cnt)
		return
	case *Overlay:
		t.countWithinByClass(class, k, cnt)
		return
	}
	l := s.L()
	s.EachPair(func(i, j, d int) {
		if d <= l {
			cnt[int(class[i])*k+int(class[j])]++
		}
	})
}

// Histogram returns counts of stored distances: hist[d] for d in
// [1, L] and hist[L+1] aggregating Far pairs. Index 0 is unused.
func Histogram(s Store) []int {
	hist := make([]int, s.L()+2)
	s.EachPair(func(_, _, d int) { hist[d]++ })
	return hist
}
