package apsp

import "fmt"

// MaxCompactL is the largest threshold a CompactMatrix can represent:
// cells hold the capped distance or the sentinel L+1 in one byte, so
// L+1 must fit in a uint8. Every experiment in the paper uses L <= 6.
const MaxCompactL = 254

// CompactMatrix is the Store backing of every L <= MaxCompactL: a packed
// upper-triangular matrix of L-capped geodesic distances with one byte
// per pair. Because the privacy model caps every stored distance at
// Far() = L+1, a uint8 cell is lossless whenever L <= MaxCompactL — at
// a quarter of the memory traffic of the int32 layout, which is what
// the candidate scans of the anonymization heuristics are bound by.
type CompactMatrix struct {
	n    int
	l    int
	data []uint8
}

// NewCompactMatrix returns a compact store for n vertices and threshold
// L with every pair initialized to Far (no edges). It panics on invalid
// sizes and on L > MaxCompactL.
func NewCompactMatrix(n, L int) *CompactMatrix {
	if n < 0 || L < 0 {
		panic(fmt.Sprintf("apsp: invalid matrix dimensions n=%d L=%d", n, L))
	}
	if L > MaxCompactL {
		panic(fmt.Sprintf("apsp: L=%d exceeds MaxCompactL=%d for the compact store (use KindPacked)", L, MaxCompactL))
	}
	m := &CompactMatrix{n: n, l: L, data: make([]uint8, n*(n-1)/2)}
	fill(m.data, uint8(L+1))
	return m
}

// N returns the number of vertices.
func (m *CompactMatrix) N() int { return m.n }

// L returns the distance threshold the matrix is capped at.
func (m *CompactMatrix) L() int { return m.l }

// Far returns the sentinel value L+1 stored for pairs with geodesic
// distance exceeding L (including unreachable pairs).
func (m *CompactMatrix) Far() int { return m.l + 1 }

func (m *CompactMatrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || i < 0 || j >= m.n {
		panic(fmt.Sprintf("apsp: invalid pair (%d, %d) for n=%d", i, j, m.n))
	}
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// Get returns the capped distance for the unordered pair {i, j}, i != j.
func (m *CompactMatrix) Get(i, j int) int { return int(m.data[m.index(i, j)]) }

// Set stores the capped distance d for the unordered pair {i, j}. Values
// above Far() are clamped to Far().
func (m *CompactMatrix) Set(i, j, d int) {
	if d > m.Far() {
		d = m.Far()
	}
	if d < 1 {
		panic(fmt.Sprintf("apsp: distance %d < 1 for distinct pair (%d, %d)", d, i, j))
	}
	m.data[m.index(i, j)] = uint8(d)
}

// Clone returns an independent deep copy (satisfying the Store
// contract): mutations of the clone never reach m.
func (m *CompactMatrix) Clone() Store {
	c := &CompactMatrix{n: m.n, l: m.l, data: make([]uint8, len(m.data))}
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m with the contents of src, which must have the
// same dimensions.
func (m *CompactMatrix) CopyFrom(src *CompactMatrix) {
	if m.n != src.n || m.l != src.l {
		panic("apsp: CopyFrom dimension mismatch")
	}
	copy(m.data, src.data)
}

// EachPair calls fn for every unordered pair i < j with the stored
// capped distance.
func (m *CompactMatrix) EachPair(fn func(i, j, d int)) {
	idx := 0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			fn(i, j, int(m.data[idx]))
			idx++
		}
	}
}
