// Package apsp computes and maintains the L-capped all-pairs geodesic
// distance stores at the heart of L-opacity evaluation.
//
// The privacy model (paper Section 4) only ever asks whether the geodesic
// distance between two vertices is at most L, so every engine in this
// package stores distances capped at L+1: a store entry holds the exact
// distance when it is <= L, and the sentinel Far() = L+1 otherwise
// (covering both "longer than L" and "unreachable"). This is precisely the
// pruning insight behind the paper's Algorithms 2 and 3 — and it also
// means a capped entry never exceeds L+1, so a store is one upper
// triangle whose cell width follows from L. The heap store is Triangle,
// written once for both widths:
//
//   - Triangle[uint8] (KindCompact): one byte per pair, the backing of
//     every L <= MaxCompactL. A quarter of the memory and cache traffic
//     of the int32 cells on every scan.
//   - Triangle[int32] (KindPacked): four bytes per pair, the backing of
//     every L above MaxCompactL.
//
// A store is identified by its graph and L alone: KindFor derives the
// backing from L, and nothing else about a build is configurable but
// its parallelism. All code above this package programs against the
// Store interface. Every bulk reader — EachPair, CountWithinByClass,
// Equal, Copy and MarshalStore — is written once, over one in-order
// walk of the triangle's rows that each backing feeds from its own
// cells: a heap triangle's data, a paged store's pages, an overlay's
// base patched with its dirty cells (see rows.go).
//
// One sweep builds every store: Build (heap stores) and StreamBuild /
// BuildToFile (snapshot files) run a bit-parallel BFS over 64-source
// batches on a frozen CSR snapshot, dealing the batches over workers
// and writing each batch's half-rows straight into a cell span (see
// sweep.go). The paper's Algorithm 2 (LPrunedFW, an L-pruned
// Floyd-Warshall) and Algorithm 3 (PointerFW, which rides linked lists
// of sub-L cells instead of scanning full rows) stay as oracles for the
// tests and experiments, together with the textbook ClassicFW; the
// tests assert all of them agree with the sweep cell for cell.
//
// The package also provides the exact ball-local delta kernels used for
// incremental candidate evaluation by the anonymization heuristics —
// InsertionDeltaScratch over the near set of the inserted edge,
// RemovalDelta over the crossing sets of the removed one (see
// delta.go); both operate on any Store.
package apsp

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// MaxCompactL is the largest threshold a one-byte cell can represent:
// cells hold the capped distance or the sentinel L+1, so L+1 must fit
// in a uint8. Every experiment in the paper uses L <= 6.
const MaxCompactL = 254

// MaxL is the largest threshold any store can represent: the int32
// cell of KindPacked must hold the sentinel L+1.
const MaxL = math.MaxInt32 - 1

// cell is the element type of a heap triangle.
type cell interface{ uint8 | int32 }

// Triangle is the heap Store: the packed upper triangle of L-capped
// geodesic distances over n vertices, one cell of type T per pair in
// row-major pair order. Entry (i, j), i != j, is the exact distance
// when it is <= L and Far() = L+1 otherwise; the diagonal is implicit
// (distance 0) and not stored. NewStore picks T from the Kind: uint8
// for KindCompact, int32 for KindPacked.
type Triangle[T cell] struct {
	n, l int
	data []T
}

// heapTriangle is what both widths of Triangle offer the rest of the
// package, so no code above the triangle switches on cell width.
type heapTriangle interface {
	MutableStore
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	kind() Kind
	sweep(sw *sweeper)
	stream(sw *sweeper, w io.Writer) error
}

// newTriangle returns an all-Far triangle of k's cell width for n
// vertices and threshold L: the one place a Kind picks T. It panics on
// invalid dimensions and on an L whose sentinel L+1 the cell cannot
// hold: L > MaxCompactL for KindCompact, L > MaxL for KindPacked.
func newTriangle(n, L int, k Kind) heapTriangle {
	if k == KindPacked {
		return makeTriangle[int32](n, L)
	}
	return makeTriangle[uint8](n, L)
}

func makeTriangle[T cell](n, L int) *Triangle[T] {
	if n < 0 || L < 0 {
		panic(fmt.Sprintf("apsp: invalid store dimensions n=%d L=%d", n, L))
	}
	if k := cellKind[T](); uint64(L) > k.maxL() {
		panic(fmt.Sprintf("apsp: L=%d exceeds the %v store's maximum %d", L, k, k.maxL()))
	}
	m := &Triangle[T]{n: n, l: L, data: make([]T, n*(n-1)/2)}
	fill(m.data, T(L+1))
	return m
}

// fill sets every cell to v with doubling copies, so an all-Far
// triangle is written at memmove speed rather than one store per cell.
func fill[T any](cells []T, v T) {
	if len(cells) == 0 {
		return
	}
	cells[0] = v
	for k := 1; k < len(cells); k *= 2 {
		copy(cells[k:], cells[:k])
	}
}

// N returns the number of vertices.
func (m *Triangle[T]) N() int { return m.n }

// L returns the distance threshold the store is capped at.
func (m *Triangle[T]) L() int { return m.l }

// Far returns the sentinel value L+1 stored for pairs with geodesic
// distance exceeding L (including unreachable pairs).
func (m *Triangle[T]) Far() int { return m.l + 1 }

func (m *Triangle[T]) kind() Kind { return cellKind[T]() }

// Get returns the capped distance for the unordered pair {i, j}, i != j.
func (m *Triangle[T]) Get(i, j int) int { return int(m.data[pairIndex(m.n, i, j)]) }

// Set stores the capped distance d for the unordered pair {i, j}. Values
// above Far() are clamped to Far().
func (m *Triangle[T]) Set(i, j, d int) {
	if d > m.l+1 {
		d = m.l + 1
	}
	if d < 1 {
		panic(fmt.Sprintf("apsp: distance %d < 1 for distinct pair (%d, %d)", d, i, j))
	}
	m.data[pairIndex(m.n, i, j)] = T(d)
}

// Clone returns an independent deep copy (satisfying the Store
// contract): mutations of the clone never reach m.
func (m *Triangle[T]) Clone() Store {
	return &Triangle[T]{n: m.n, l: m.l, data: slices.Clone(m.data)}
}

// EachPair calls fn for every unordered pair i < j in row-major order
// with the stored capped distance.
func (m *Triangle[T]) EachPair(fn func(i, j, d int)) { rows[T]{m}.eachPair(fn) }

// sweep fills m, all Far, with the build sweep.
func (m *Triangle[T]) sweep(sw *sweeper) { sweepRows(sw, m.data, 0, m.n) }

// The triangle layout, shared by every backing: the pair i < j of an
// n-vertex store sits at row-major offset rowOffset(n, i) + j - i - 1.

// rowOffset returns the index of cell {s, s+1}, the first cell of row
// s, in the packed upper triangle over n vertices.
func rowOffset(n, s int) int { return s * (2*n - s - 1) / 2 }

// pairIndex returns the triangle offset of the unordered pair {i, j} of
// an n-vertex store. It panics unless i != j and both lie in [0, n).
// The offset is computed in int64 because file-backed triangles may
// hold more cells than a 32-bit int can count.
func pairIndex(n, i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	// With i <= j, the unsigned compares reject i == j, a negative i
	// and any j outside [0, n).
	if uint(i) >= uint(j) || uint(j) >= uint(n) {
		panic(pairError{n, i, j})
	}
	return int64(i)*(2*int64(n)-int64(i)-1)/2 + int64(j-i-1)
}

// pairError is pairIndex's panic value; a value rather than a call
// keeps pairIndex small enough to inline into every Get.
type pairError struct{ n, i, j int }

func (e pairError) Error() string {
	return fmt.Sprintf("apsp: invalid pair (%d, %d) for n=%d", e.i, e.j, e.n)
}
