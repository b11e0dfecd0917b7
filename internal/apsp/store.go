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
//
// Every bulk reader — EachPair, CountWithinByClass, Equal, Copy and
// MarshalStore — is written once, as one in-order walk over the
// triangle's rows. Each backing, and the Overlay over any of them,
// feeds that walk from its own cells in one place (readCells in
// rows.go); any other implementation is read through Get.
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
	// KindPacked is the int32 layout, the backing of every L above
	// MaxCompactL up to MaxL.
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
// the given backing. It panics on invalid dimensions and on an L the
// backing's cell cannot cap (see newTriangle); KindFor(L) is legal for
// every L up to MaxL.
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
