package apsp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Store is the read view every layer above this package programs
// against: an L-capped geodesic distance store over a fixed vertex set.
// Entry (i, j), i != j, is the exact distance d(i, j) when d(i, j) <= L
// and the sentinel Far() = L+1 otherwise. The diagonal is implicit
// (distance 0) and never stored.
//
// Four backings implement it: CompactMatrix (uint8 cells, every built
// store with L <= MaxCompactL — a capped distance never exceeds L+1, so
// one byte suffices), Matrix (int32 cells, the original packed layout,
// needed only for thresholds beyond MaxCompactL), MappedStore (a
// read-only memory-mapped view of a persisted snapshot), and PagedStore
// (a read-only window over a snapshot file through a bounded page
// cache, for triangles larger than RAM). Mutation is a separate
// contract: see MutableStore and Overlay.
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
	// the clone never affects the original. File-backed stores (mapped,
	// paged) materialize the full triangle; prefer NewOverlay when the
	// goal is a mutable view rather than an independent heap copy.
	Clone() Store
}

// MutableStore is the write view: everything a Store offers plus cell
// writes. The heap backings (CompactMatrix, Matrix) and the sparse
// Overlay implement it; the file-backed read views (MappedStore,
// PagedStore) deliberately do not — wrapping one in an Overlay is the
// only mutation path, which is what keeps writable runs from ever
// needing the full triangle in heap.
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
	// KindMapped names the read-only MappedStore view over a persisted
	// snapshot file. It is a residency, not a buildable backing:
	// NewStore panics on it, and the view reports its payload's kind.
	KindMapped
	// KindPaged names the read-only PagedStore view: a snapshot file
	// windowed through a bounded LRU page cache. Like KindMapped it is a
	// residency — NewStore panics on it — but its resident memory is
	// explicitly capped, so it serves triangles larger than RAM.
	KindPaged
)

// String names the kind as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case KindCompact:
		return "compact"
	case KindPacked:
		return "packed"
	case KindMapped:
		return "mapped"
	case KindPaged:
		return "paged"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a case-sensitive store name ("compact", "packed",
// "mapped", "paged"; "" selects compact). The HTTP service uses it to
// reject unknown names.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "compact", "uint8":
		return KindCompact, nil
	case "packed", "int32":
		return KindPacked, nil
	case "mapped", "mmap":
		return KindMapped, nil
	case "paged":
		return KindPaged, nil
	}
	return 0, fmt.Errorf("apsp: unknown store %q (want compact, packed, mapped, or paged)", s)
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
	case KindPacked:
		return NewMatrix(n, L)
	case KindCompact:
		return NewCompactMatrix(n, L)
	case KindMapped:
		panic("apsp: mapped stores are opened from snapshot files (OpenMappedStore), not built")
	case KindPaged:
		panic("apsp: paged stores are opened from snapshot files (OpenPagedStore), not built")
	}
	panic(fmt.Sprintf("apsp: unknown store kind %d", int(k)))
}

// KindOf reports the backing of a store, defaulting to KindFor(L) for
// foreign implementations. A mapped or paged store reports its payload
// kind (what Clone decodes into), not KindMapped/KindPaged, and an
// overlay reports its base's kind, so serialization built on KindOf
// treats every view as its heap twin.
func KindOf(s Store) Kind {
	switch t := s.(type) {
	case *Matrix:
		return KindPacked
	case *MappedStore:
		return t.Kind()
	case *PagedStore:
		return t.Kind()
	case *CompactMatrix:
		return KindCompact
	case *Overlay:
		return KindOf(t.Base())
	}
	return KindFor(s.L())
}

// BackingName names the concrete representation of a store for
// operator-facing accounting ("compact", "packed", "mapped", "paged",
// "overlay") — unlike KindOf it does NOT fold views to their heap
// twins, because resident-bytes gauges exist precisely to distinguish
// a mapped or paged view from a heap copy of the same snapshot.
func BackingName(s Store) string {
	switch s.(type) {
	case *Matrix:
		return "packed"
	case *CompactMatrix:
		return "compact"
	case *MappedStore:
		return "mapped"
	case *PagedStore:
		return "paged"
	case *Overlay:
		return "overlay"
	}
	return "foreign"
}

// Footprint reports how many bytes a store pins in heap and how many
// live in its backing file. Heap backings are all heap and no file; a
// mapped store is all file (the mapping is page-cache memory the OS
// can reclaim, not Go heap); a paged store pins exactly its resident
// pages; an overlay adds its dirty set on top of its base. Foreign
// implementations report zero, not an estimate.
func Footprint(s Store) (heapBytes, fileBytes int64) {
	switch t := s.(type) {
	case *CompactMatrix:
		return int64(len(t.data)), 0
	case *Matrix:
		return 4 * int64(len(t.data)), 0
	case *MappedStore:
		return 0, int64(len(t.raw))
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
// slice copy; a mapped or paged source whose payload is dst's kind is
// one pass over the snapshot bytes; an overlay copied into a heap store
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
	heap := false
	switch dst.(type) {
	case *CompactMatrix, *Matrix:
		heap = true
	}
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
	case *CompactMatrix:
		if d, ok := dst.(*CompactMatrix); ok {
			d.CopyFrom(s)
			return nil
		}
	case *Matrix:
		if d, ok := dst.(*Matrix); ok {
			d.CopyFrom(s)
			return nil
		}
	case *MappedStore:
		if heap && s.kind == KindOf(dst) {
			return s.copyTo(dst)
		}
	case *PagedStore:
		if heap && s.kind == KindOf(dst) {
			return s.copyTo(dst)
		}
	}
	src.EachPair(func(i, j, d int) { dst.Set(i, j, d) })
	return nil
}

// putCells writes snapshot payload bytes of dst's own kind into dst, a
// heap store, starting at triangle index at. A cell above Far() is
// clamped as Set clamps it; a cell below 1 is written as read and its
// index appended to bad, so no file byte reaches the heap unchecked.
// The indices are gathered by a second scan only when the branch-free
// first one sees such a cell.
func putCells(dst MutableStore, at int, raw []byte, bad []int64) []int64 {
	switch d := dst.(type) {
	case *CompactMatrix:
		far, low := uint8(d.l+1), uint8(1)
		cells := d.data[at : at+len(raw)]
		for x, c := range raw {
			cells[x] = min(c, far)
			low = min(low, c)
		}
		if low < 1 {
			for x, c := range raw {
				if c < 1 {
					bad = append(bad, int64(at+x))
				}
			}
		}
	case *Matrix:
		far, low := int32(d.l+1), int32(1)
		cells := d.data[at : at+len(raw)/4]
		for x := range cells {
			c := int32(binary.LittleEndian.Uint32(raw[4*x:]))
			cells[x] = min(c, far)
			low = min(low, c)
		}
		if low < 1 {
			for x, c := range cells {
				if c < 1 {
					bad = append(bad, int64(at+x))
				}
			}
		}
	}
	return bad
}

// trianglePair inverts the row-major triangle index of an n-vertex
// store: the pair i < j stored at offset idx. Row i starts at offset
// i*(2n-i-1)/2, so i is found by binary search.
func trianglePair(n int, idx int64) (i, j int) {
	nn := int64(n)
	start := func(r int64) int64 { return r * (2*nn - r - 1) / 2 }
	lo, hi := int64(0), nn-1 // the row lies in [lo, hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if start(mid) <= idx {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int(lo), int(idx - start(lo) + lo + 1)
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
	if x, ok := a.(*Matrix); ok {
		if y, ok := b.(*Matrix); ok {
			return slices.Equal(x.data, y.data)
		}
	}
	if x, ok := a.(*CompactMatrix); ok {
		if y, ok := b.(*CompactMatrix); ok {
			return bytes.Equal(x.data, y.data)
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
// One-byte triangles, heap or mapped, are counted straight off their
// rows; an overlay counts its base and then corrects once per dirty
// cell; every other backing is walked through EachPair.
func CountWithinByClass(s Store, class []int32, k int, cnt []int64) {
	if len(class) != s.N() || len(cnt) < k*k {
		panic(fmt.Sprintf("apsp: CountWithinByClass got %d classes for n=%d and %d counters for k=%d", len(class), s.N(), len(cnt), k))
	}
	switch t := s.(type) {
	case *CompactMatrix:
		countCompactRows(t.data, t.n, t.l, class, k, cnt)
		return
	case *MappedStore:
		if t.kind == KindCompact {
			countCompactRows(t.data, t.n, t.l, class, k, cnt)
			return
		}
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

// countCompactRows is CountWithinByClass over a one-byte triangle. The
// inner loop is branch-free: (L-d)>>63 is -1 exactly when d > L.
func countCompactRows(data []uint8, n, L int, class []int32, k int, cnt []int64) {
	idx := 0
	for i := 0; i < n-1; i++ {
		row := data[idx : idx+n-i-1]
		cls := class[i+1 : n]
		cls = cls[:len(row)]
		base := int(class[i]) * k
		c := cnt[base : base+k]
		for j, d := range row {
			c[cls[j]] += 1 + int64(L-int(d))>>63
		}
		idx += len(row)
	}
}

// Histogram returns counts of stored distances: hist[d] for d in
// [1, L] and hist[L+1] aggregating Far pairs. Index 0 is unused.
func Histogram(s Store) []int {
	hist := make([]int, s.L()+2)
	s.EachPair(func(_, _, d int) { hist[d]++ })
	return hist
}
