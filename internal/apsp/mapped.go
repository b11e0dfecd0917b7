package apsp

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
)

// MappedStore is a read-only Store backed directly by the bytes of a
// snapshot file (the "LOPS" format of serialize.go), normally a
// memory-mapped region. Opening one never materializes the distance
// triangle in the Go heap: Get reads straight out of the mapping, the
// kernel pages cells in on demand, and a registry restart over a
// multi-gigabyte store directory costs page-table setup instead of a
// full read-and-decode pass.
//
// The tradeoff against UnmarshalStore is validation depth: the header,
// dimensions, and payload length are checked on open, but the cells
// themselves are NOT range-checked — scanning them would fault in the
// entire file and forfeit the zero-copy win. A corrupt cell therefore
// surfaces as an out-of-range distance at read time rather than an
// open-time error; callers that need full validation should decode
// with UnmarshalStore instead.
//
// A mapped store implements only the read-side Store contract — it has
// no Set, so the type system itself keeps a shared, persistent
// artifact from being written. Mutable consumers wrap it in an Overlay
// (sparse, O(dirty) memory) or take Clone(), which decodes into an
// ordinary heap store of the payload's kind.
type MappedStore struct {
	n, l int
	kind Kind   // payload backing recorded in the header
	raw  []byte // the full snapshot: header + payload
	data []byte // payload view: raw[storeHeaderLen:]

	closeOnce sync.Once
	unmap     func() error // releases the mapping; nil for heap-backed opens
}

// OpenMappedStore maps the snapshot file at path and returns the store
// view over it. On platforms with mmap the file contents are borrowed
// zero-copy; elsewhere the file is read into memory (same semantics,
// no paging win). The mapping is released by Close or, failing that,
// by a finalizer when the store becomes unreachable — never while a
// reachable store could still serve a Get.
func OpenMappedStore(path string) (*MappedStore, error) {
	raw, unmap, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("apsp: mapping store snapshot %s: %w", path, err)
	}
	s, err := NewMappedStore(raw, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("apsp: %s: %w", path, err)
	}
	return s, nil
}

// NewMappedStore wraps raw snapshot bytes (header + payload) in a
// read-only store without copying them. unmap, when non-nil, is called
// exactly once to release the underlying region — on Close or via
// finalizer. The caller must not mutate raw afterwards.
func NewMappedStore(raw []byte, unmap func() error) (*MappedStore, error) {
	k, n, l, err := decodeStoreHeader(raw)
	if err != nil {
		return nil, err
	}
	payload := raw[storeHeaderLen:]
	cells := cellCount(uint64(n))
	var want uint64
	switch k {
	case KindCompact:
		want = cells
	case KindPacked:
		want = 4 * cells
	}
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("apsp: mapped snapshot payload is %d bytes, want %d for n=%d %v cells", len(payload), want, n, k)
	}
	s := &MappedStore{n: n, l: l, kind: k, raw: raw, data: payload, unmap: unmap}
	if unmap != nil {
		runtime.SetFinalizer(s, func(m *MappedStore) { m.Close() })
	}
	return s, nil
}

// Close releases the underlying mapping. It is idempotent; reads after
// Close panic (the payload view is gone).
func (m *MappedStore) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.raw, m.data = nil, nil
		if m.unmap != nil {
			runtime.SetFinalizer(m, nil)
			err = m.unmap()
		}
	})
	return err
}

// N returns the number of vertices.
func (m *MappedStore) N() int { return m.n }

// L returns the distance threshold the store is capped at.
func (m *MappedStore) L() int { return m.l }

// Far returns the sentinel stored for pairs beyond the cap.
func (m *MappedStore) Far() int { return m.l + 1 }

// Kind reports the payload backing recorded in the snapshot header
// (compact or packed) — the kind a Clone decodes into.
func (m *MappedStore) Kind() Kind { return m.kind }

// index returns the packed upper-triangle offset of the unordered pair
// {i, j}; the layout is identical to Matrix and CompactMatrix.
func (m *MappedStore) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || i < 0 || j >= m.n {
		panic(fmt.Sprintf("apsp: pair (%d, %d) out of range for n=%d", i, j, m.n))
	}
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// Get returns the capped distance for the unordered pair {i, j}.
func (m *MappedStore) Get(i, j int) int {
	idx := m.index(i, j)
	if m.kind == KindCompact {
		return int(m.data[idx])
	}
	return int(int32(binary.LittleEndian.Uint32(m.data[4*idx:])))
}

// EachPair calls fn for every unordered pair i < j in row-major order.
func (m *MappedStore) EachPair(fn func(i, j, d int)) {
	idx := 0
	if m.kind == KindCompact {
		for i := 0; i < m.n; i++ {
			for j := i + 1; j < m.n; j++ {
				fn(i, j, int(m.data[idx]))
				idx++
			}
		}
		return
	}
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			fn(i, j, int(int32(binary.LittleEndian.Uint32(m.data[idx:]))))
			idx += 4
		}
	}
}

// copyTo fills dst, a heap store of the payload's kind, straight from
// the mapping (see putCells) and returns the indices of cells below 1.
func (m *MappedStore) copyTo(dst MutableStore) []int64 {
	if m.data == nil {
		panic("apsp: mapped store read after Close")
	}
	return putCells(dst, 0, m.data, nil)
}

// Clone decodes the snapshot into an independent, mutable heap store
// of the payload's kind. This is the path an anonymization run takes
// when seeded from a mapped store: the run mutates its private copy
// while the mapping keeps serving other readers. Unlike Get, the
// decode validates every cell, so a corrupt snapshot cannot leak past
// the first Clone.
func (m *MappedStore) Clone() Store {
	s, err := UnmarshalStore(m.raw)
	if err != nil {
		panic(fmt.Sprintf("apsp: cloning mapped store: %v", err))
	}
	return s
}
