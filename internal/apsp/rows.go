package apsp

import (
	"fmt"
	"maps"
	"slices"
)

// The row walk: every bulk reader of a store — EachPair, the class
// census, Equal and Copy — is one in-order pass over the upper
// triangle, where row i is the contiguous run of cells {i, j}, j > i,
// in j order. Each backing hands out its cells once, as spans, in
// readCells; eachRow cuts the spans at row ends; and each reader is
// written once over them, in rows[T].

// readCells returns a reader of the cells of s's triangle, in cells of
// type T. The reader returns the cells from offset at on, in triangle
// order: at least one cell, and at most the rest of the triangle. A
// walk calls it with at = 0 and then with the offset after each span it
// returned, until the triangle ends. A span is valid only until the
// next call: it may alias the store's own cells or a reused buffer, and
// must not be written. The spans of each backing:
//
//   - a heap triangle of width T hands out the rest of its data;
//   - a paged store of T's kind hands out the rest of the page holding
//     the offset, decoded into scratch for packed cells. With uncached
//     set it reads its file directly, one page-sized ReadAt at a time,
//     instead of through the cache: a full pass would otherwise evict
//     every other store's hot pages;
//   - an overlay hands out its base's spans cut at its dirty cells, and
//     each dirty cell as a span of its own;
//   - any other store, or a backing of the other width, hands out one
//     row at a time, read cell by cell through Get.
func readCells[T cell](s Store, uncached bool) func(at int) []T {
	switch t := s.(type) {
	case *Triangle[T]:
		return func(at int) []T { return t.data[at:] }
	case *PagedStore:
		if t.kind == cellKind[T]() {
			return pagedCells[T](t, uncached)
		}
	case *Overlay:
		return overlayCells[T](t, uncached)
	}
	buf, i := make([]T, s.N()), 0
	return func(int) []T {
		row := buf[:len(buf)-1-i]
		for x := range row {
			row[x] = T(s.Get(i, i+1+x))
		}
		i++
		return row
	}
}

// pagedCells is readCells for a paged store whose payload holds T cells.
func pagedCells[T cell](s *PagedStore, uncached bool) func(at int) []T {
	w := s.kind.width()
	var direct []byte
	if uncached {
		direct = make([]byte, min(pageSize, s.payload))
	}
	scratch := make([]T, pageSize/w)
	return func(at int) []T {
		off := int64(at) * w
		page := s.page(off/pageSize, direct)[off%pageSize:]
		if cells, ok := any(page).([]T); ok {
			return cells // compact cells are the page's bytes
		}
		cells := scratch[:int64(len(page))/w]
		decodeCells(cells, page)
		return cells
	}
}

// overlayCells is readCells for an overlay chain. It gathers the dirty
// indices of every layer once per walk and sorts them, so the spans of
// the first non-overlay base are read once, each cut before the next
// dirty index, and the topmost layer's value at that index follows as
// a one-cell span. A value is looked up when its span is read, and
// Copy onto the overlay itself writes only cells it has already read.
func overlayCells[T cell](o *Overlay, uncached bool) func(at int) []T {
	keys, base := make([]int64, 0, len(o.dirty)), Store(o)
	for ov, ok := o, true; ok; ov, ok = base.(*Overlay) {
		keys = slices.AppendSeq(keys, maps.Keys(ov.dirty))
		base = ov.base
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	// run is what is left of the base's last span, from offset at on.
	next, run, one := readCells[T](base, uncached), []T(nil), make([]T, 1)
	return func(at int) []T {
		if len(run) == 0 {
			run = next(at)
		}
		out := run
		if len(keys) > 0 && keys[0] < int64(at+len(run)) {
			if out = run[:int(keys[0])-at]; len(out) == 0 {
				// A dirty cell holds at least 1, so 0 means no entry.
				ov, v := o, o.dirty[keys[0]]
				for ; v == 0; v = ov.dirty[keys[0]] {
					ov = ov.base.(*Overlay)
				}
				one[0], out, keys = T(v), one, keys[1:]
			}
		}
		run = run[len(out):]
		return out
	}
}

// eachRow walks the spans of s in cells of type T and calls fn with
// each piece of a row they hold: the cells {i, j}, {i, j+1}, ... of row
// i, in order. A row inside one span arrives as one piece, a subslice
// of the span; a row cut by a span boundary — a page edge, a dirty
// cell — arrives as several. A piece is valid only during the call.
func eachRow[T cell](s Store, uncached bool, fn func(i, j int, cells []T)) {
	n, next := s.N(), readCells[T](s, uncached)
	for at, i, j := 0, 0, 1; i < n-1; {
		span := next(at)
		for at += len(span); len(span) > 0; {
			c := min(len(span), n-j)
			fn(i, j, span[:c])
			if span, j = span[c:], j+c; j == n {
				i, j = i+1, i+2
			}
		}
	}
}

// rows is the row walk of one store in cells of type T, with the bulk
// readers written once over it.
type rows[T cell] struct{ s Store }

// bulk is what rows offers at either cell width.
type bulk interface {
	eachPair(fn func(i, j, d int))
	copyTo(dst MutableStore)
	heapCopy() heapTriangle
	countWithinByClass(class []int32, k int, cnt []int64)
}

// rowsOf returns the row walk of s in the cells of its kind.
func rowsOf(s Store) bulk {
	if KindOf(s) == KindPacked {
		return rows[int32]{s}
	}
	return rows[uint8]{s}
}

func (r rows[T]) eachPair(fn func(i, j, d int)) {
	eachRow(r.s, false, func(i, j int, cells []T) {
		for x, d := range cells {
			fn(i, j+x, int(d))
		}
	})
}

// Copy overwrites dst with the contents of src, which must have the
// same dimensions; the backings may differ. Every cell lands under
// Set's rules: values above Far() are clamped, values below 1 panic.
//
// Copy is one pass over src's walk. A heap destination of src's cell
// width takes each span with one slice copy when every cell of src is
// known to be in range, so flattening an overlay chain over a heap
// store costs one triangle copy plus O(dirty); otherwise it takes each
// piece of a row with one slice copy and then checks it, so a corrupt
// file cell that an overlay masks is never seen. Either way a paged
// source is read straight from its file, bypassing the page cache.
// Every other destination takes each cell through Set, in the order
// EachPair hands them out, through the page cache.
func Copy(dst MutableStore, src Store) {
	if dst.N() != src.N() || dst.L() != src.L() {
		panic("apsp: Copy dimension mismatch")
	}
	rowsOf(src).copyTo(dst)
}

func (r rows[T]) copyTo(dst MutableStore) {
	m, flat := dst.(*Triangle[T])
	switch far := T(r.s.Far()); {
	case !flat:
		r.eachPair(dst.Set)
	case inRange(r.s):
		next := readCells[T](r.s, true)
		for at := 0; at < len(m.data); {
			at += copy(m.data[at:], next(at))
		}
	default:
		eachRow(r.s, true, func(i, j int, cells []T) {
			out := m.data[pairIndex(m.n, i, j):][:len(cells)]
			copy(out, cells)
			for x, c := range out {
				// One unsigned compare finds a cell below 1 or above Far.
				if uint(int(c)-1) >= uint(far) {
					if c < 1 {
						panic(fmt.Sprintf("apsp: distance %d < 1 for distinct pair (%d, %d)", c, i, j+x))
					}
					out[x] = far
				}
			}
		})
	}
}

// heapCopy returns a new heap triangle of the walk's width holding its
// cells. copyTo writes every cell, so the triangle is not first filled
// with Far as NewStore fills it.
func (r rows[T]) heapCopy() heapTriangle {
	m := &Triangle[T]{n: r.s.N(), l: r.s.L(), data: make([]T, cellCount(uint64(r.s.N())))}
	r.copyTo(m)
	return m
}

// inRange reports whether every cell of s is known to lie in [1, Far]:
// true of a heap triangle, whose cells Set and the snapshot decoder
// check, and of an overlay over one, whose dirty cells Set checks.
func inRange(s Store) bool {
	if o, ok := s.(*Overlay); ok {
		return inRange(o.base)
	}
	_, ok := s.(heapTriangle)
	return ok
}

// Equal reports whether two stores describe identical capped-distance
// matrices: same vertex count, same threshold, same entries. The
// backings need not match — a compact store equals its packed twin,
// which is what the cross-store validation tests assert. The walk of a
// runs against b's spans, in int32 cells unless both are compact, and
// stops reading b at the first stretch of cells that differs.
func Equal(a, b Store) bool {
	if a.N() != b.N() || a.L() != b.L() {
		return false
	}
	if KindOf(a) == KindCompact && KindOf(b) == KindCompact {
		return equalCells[uint8](a, b)
	}
	return equalCells[int32](a, b)
}

func equalCells[T cell](a, b Store) bool {
	next, at, span, eq := readCells[T](b, false), 0, []T(nil), true
	eachRow(a, false, func(_, _ int, cells []T) {
		for eq && len(cells) > 0 {
			if len(span) == 0 {
				span = next(at)
			}
			c := min(len(cells), len(span))
			eq = slices.Equal(cells[:c], span[:c])
			cells, span, at = cells[c:], span[c:], at+c
		}
	})
	return eq
}

// CountWithinByClass counts the pairs within L by vertex class: for
// every pair i < j at distance <= L it adds 1 to
// cnt[class[i]*k+class[j]]. class holds one value in [0, k) per vertex
// and cnt needs k*k cells; counts are added to what cnt already holds.
// The count is ordered by row, so a caller folding it into unordered
// class pairs sums the cells (a, b) and (b, a).
//
// It is one pass over the row walk of s, whatever its backing, with a
// branch-free inner loop: (L-d)>>63 is -1 exactly when d > L.
func CountWithinByClass(s Store, class []int32, k int, cnt []int64) {
	if len(class) != s.N() || len(cnt) < k*k {
		panic(fmt.Sprintf("apsp: CountWithinByClass got %d classes for n=%d and %d counters for k=%d", len(class), s.N(), len(cnt), k))
	}
	rowsOf(s).countWithinByClass(class, k, cnt)
}

func (r rows[T]) countWithinByClass(class []int32, k int, cnt []int64) {
	L := r.s.L()
	eachRow(r.s, false, func(i, j int, cells []T) {
		cls, c := class[j:][:len(cells)], cnt[int(class[i])*k:][:k]
		for x, d := range cells {
			c[cls[x]] += 1 + int64(L-int(d))>>63
		}
	})
}
