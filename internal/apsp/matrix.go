// Package apsp computes and maintains the L-capped all-pairs geodesic
// distance stores at the heart of L-opacity evaluation.
//
// The privacy model (paper Section 4) only ever asks whether the geodesic
// distance between two vertices is at most L, so every engine in this
// package stores distances capped at L+1: a store entry holds the exact
// distance when it is <= L, and the sentinel Far() = L+1 otherwise
// (covering both "longer than L" and "unreachable"). This is precisely the
// pruning insight behind the paper's Algorithms 2 and 3 — and it also
// means a capped entry never exceeds L+1, so the Store abstraction has
// two heap backings:
//
//   - CompactMatrix (KindCompact): one uint8 per pair, the backing of
//     every L <= MaxCompactL. A quarter of the memory and cache traffic
//     of the int32 layout on every scan.
//   - Matrix (KindPacked): the packed int32 layout, the backing of
//     every L above MaxCompactL.
//
// A store is identified by its graph and L alone: KindFor derives the
// backing from L, and nothing else about a build is configurable but
// its parallelism. All code above this package programs against the
// Store interface, and the package-level Equal/Clone/Copy/CountWithin/
// CountWithinByClass/Histogram helpers work on any Store regardless of
// backing.
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

import "fmt"

// Matrix is the packed int32 Store implementation: an upper-triangular
// matrix of L-capped geodesic distances over a fixed vertex set. Entry
// (i, j), i != j, is the exact geodesic distance d(i, j) when
// d(i, j) <= L, and Far() = L+1 otherwise. The diagonal is implicit
// (distance 0) and not stored. It is the backing of every L above
// MaxCompactL; below it the 4x smaller CompactMatrix is used.
type Matrix struct {
	n    int
	l    int
	data []int32
}

// NewMatrix returns a matrix for n vertices and threshold L with every
// pair initialized to Far (no edges). It panics on invalid sizes.
func NewMatrix(n, L int) *Matrix {
	if n < 0 || L < 0 {
		panic(fmt.Sprintf("apsp: invalid matrix dimensions n=%d L=%d", n, L))
	}
	m := &Matrix{n: n, l: L, data: make([]int32, n*(n-1)/2)}
	fill(m.data, int32(L+1))
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
func (m *Matrix) N() int { return m.n }

// L returns the distance threshold the matrix is capped at.
func (m *Matrix) L() int { return m.l }

// Far returns the sentinel value L+1 stored for pairs with geodesic
// distance exceeding L (including unreachable pairs).
func (m *Matrix) Far() int { return m.l + 1 }

func (m *Matrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || i < 0 || j >= m.n {
		panic(fmt.Sprintf("apsp: invalid pair (%d, %d) for n=%d", i, j, m.n))
	}
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// Get returns the capped distance for the unordered pair {i, j}, i != j.
func (m *Matrix) Get(i, j int) int { return int(m.data[m.index(i, j)]) }

// Set stores the capped distance d for the unordered pair {i, j}. Values
// above Far() are clamped to Far().
func (m *Matrix) Set(i, j, d int) {
	if d > m.Far() {
		d = m.Far()
	}
	if d < 1 {
		panic(fmt.Sprintf("apsp: distance %d < 1 for distinct pair (%d, %d)", d, i, j))
	}
	m.data[m.index(i, j)] = int32(d)
}

// Clone returns an independent deep copy (satisfying the Store
// contract): mutations of the clone never reach m.
func (m *Matrix) Clone() Store {
	c := &Matrix{n: m.n, l: m.l, data: make([]int32, len(m.data))}
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m with the contents of src, which must have the
// same dimensions.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.n != src.n || m.l != src.l {
		panic("apsp: CopyFrom dimension mismatch")
	}
	copy(m.data, src.data)
}

// EachPair calls fn for every unordered pair i < j with the stored capped
// distance.
func (m *Matrix) EachPair(fn func(i, j, d int)) {
	idx := 0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			fn(i, j, int(m.data[idx]))
			idx++
		}
	}
}
