package apsp

import (
	"encoding/binary"
	"fmt"
)

// Binary snapshot format for distance stores, shared by both cell widths.
// A store is the expensive artifact of the serving workload — an
// L-capped APSP build — so the registry persists built stores and
// reloads them on boot, and this file defines the wire form:
//
//	offset  size  field
//	0       4     magic "LOPS"
//	4       1     format version (currently 1)
//	5       1     kind (0 = compact/uint8, 1 = packed/int32)
//	6       8     n, uint64 little-endian
//	14      8     L, uint64 little-endian
//	22      -     payload: n*(n-1)/2 cells in row-major pair order
//	              (compact: one byte per cell; packed: int32 LE)
//
// Decoding is strict: a wrong magic, unknown version or kind, an L
// whose sentinel L+1 the kind's cell cannot hold, a truncated or
// oversized payload, or any cell outside [1, L+1] is an error — never
// a panic and never a silently misloaded store. The sizes decoded
// from the header are validated against the actual payload length
// BEFORE any allocation, so a corrupt header cannot force a huge
// allocation.

const (
	storeMagic   = "LOPS"
	storeVersion = 1
	// storeHeaderLen is magic + version + kind + n + L.
	storeHeaderLen = 4 + 1 + 1 + 8 + 8
)

// cellCount returns n*(n-1)/2 without intermediate overflow for any n
// that can head a credible snapshot.
func cellCount(n uint64) uint64 {
	if n%2 == 0 {
		return n / 2 * (n - 1)
	}
	return (n - 1) / 2 * n
}

// appendStoreHeader writes the common header for a store of the given
// kind and dimensions.
func appendStoreHeader(buf []byte, k Kind, n, l int) []byte {
	buf = append(buf, storeMagic...)
	buf = append(buf, storeVersion, byte(k))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l))
	return buf
}

// decodeStoreHeader validates the fixed header and returns the kind and
// dimensions. n is bounded so the caller's payload-length check cannot
// overflow, and L so that a cell of the kind can hold Far = L+1.
// Every decoder of snapshot bytes, heap or paged, starts here.
func decodeStoreHeader(data []byte) (k Kind, n, l int, err error) {
	if len(data) < storeHeaderLen {
		return 0, 0, 0, fmt.Errorf("apsp: store snapshot truncated: %d bytes < %d-byte header", len(data), storeHeaderLen)
	}
	if string(data[:4]) != storeMagic {
		return 0, 0, 0, fmt.Errorf("apsp: store snapshot has bad magic %q", data[:4])
	}
	if data[4] != storeVersion {
		return 0, 0, 0, fmt.Errorf("apsp: unsupported store snapshot version %d (want %d)", data[4], storeVersion)
	}
	switch Kind(data[5]) {
	case KindCompact, KindPacked:
		k = Kind(data[5])
	default:
		return 0, 0, 0, fmt.Errorf("apsp: unknown store kind %d in snapshot", data[5])
	}
	un := binary.LittleEndian.Uint64(data[6:14])
	ul := binary.LittleEndian.Uint64(data[14:22])
	if un > 1<<31 {
		return 0, 0, 0, fmt.Errorf("apsp: store snapshot dimension n=%d out of range", un)
	}
	if ul > k.maxL() {
		return 0, 0, 0, fmt.Errorf("apsp: %v snapshot claims L=%d > %d, leaving its cells no room for Far=L+1", k, ul, k.maxL())
	}
	return k, int(un), int(ul), nil
}

// The cell codec: the one place that knows how wide a cell of each
// kind is and how it is laid out in snapshot bytes. Compact cells are
// one byte, packed cells one little-endian int32; heap triangles hold
// the same cells natively.

// cellKind returns the kind whose cells are T.
func cellKind[T cell]() Kind {
	if _, ok := any(T(0)).(uint8); ok {
		return KindCompact
	}
	return KindPacked
}

// width returns the bytes one cell of kind k takes.
func (k Kind) width() int64 {
	if k == KindPacked {
		return 4
	}
	return 1
}

// maxL returns the largest threshold whose sentinel L+1 a cell of kind
// k can hold.
func (k Kind) maxL() uint64 {
	if k == KindPacked {
		return MaxL
	}
	return MaxCompactL
}

// decodeCell returns the cell of kind k at byte offset off of snapshot
// bytes b.
func (k Kind) decodeCell(b []byte, off int) int {
	if k == KindPacked {
		return int(int32(binary.LittleEndian.Uint32(b[off:])))
	}
	return int(b[off])
}

// appendCells appends the snapshot encoding of cells to buf.
func appendCells[T cell](buf []byte, cells []T) []byte {
	switch c := any(cells).(type) {
	case []uint8:
		return append(buf, c...)
	case []int32:
		for _, x := range c {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	return buf
}

// decodeCells fills cells from their snapshot encoding raw.
func decodeCells[T cell](cells []T, raw []byte) {
	switch c := any(cells).(type) {
	case []uint8:
		copy(c, raw)
	case []int32:
		for x := range c {
			c[x] = int32(binary.LittleEndian.Uint32(raw[4*x:]))
		}
	}
}

// MarshalBinary encodes the store in the versioned snapshot format. It
// implements encoding.BinaryMarshaler.
func (m *Triangle[T]) MarshalBinary() ([]byte, error) {
	k := m.kind()
	buf := make([]byte, 0, storeHeaderLen+int64(len(m.data))*k.width())
	return appendCells(appendStoreHeader(buf, k, m.n, m.l), m.data), nil
}

// UnmarshalBinary overwrites m with a snapshot of m's kind. It
// implements encoding.BinaryUnmarshaler and rejects snapshots of the
// other kind; use UnmarshalStore when the kind is not known up front.
func (m *Triangle[T]) UnmarshalBinary(data []byte) error {
	k, n, l, err := decodeStoreHeader(data)
	if err != nil {
		return err
	}
	if k != m.kind() {
		return fmt.Errorf("apsp: snapshot holds a %v store, not %v", k, m.kind())
	}
	payload := data[storeHeaderLen:]
	cells := cellCount(uint64(n))
	if want := cells * uint64(k.width()); uint64(len(payload)) != want {
		return fmt.Errorf("apsp: %v snapshot payload is %d bytes, want %d for n=%d", k, len(payload), want, n)
	}
	out := make([]T, cells)
	decodeCells(out, payload)
	far := T(l + 1)
	for i, c := range out {
		if c < 1 || c > far {
			return fmt.Errorf("apsp: %v snapshot cell %d holds %d outside [1, %d]", k, i, c, far)
		}
	}
	m.n, m.l, m.data = n, l, out
	return nil
}

// MarshalStore encodes any Store in the versioned snapshot format.
// Heap stores encode directly, a paged view hands back its snapshot
// bytes, and every other store (an overlay, a foreign implementation)
// is copied by Copy into its heap twin. A compact twin is built in the
// payload of the output buffer itself, so the triangle is copied once.
func MarshalStore(s Store) ([]byte, error) {
	switch t := s.(type) {
	case heapTriangle:
		return t.MarshalBinary()
	case *PagedStore:
		return t.snapshot()
	}
	if KindOf(s) != KindCompact {
		return rowsOf(s).heapCopy().MarshalBinary()
	}
	n, l := s.N(), s.L()
	buf := make([]byte, storeHeaderLen+n*(n-1)/2)
	appendStoreHeader(buf[:0], KindCompact, n, l)
	Copy(&Triangle[uint8]{n: n, l: l, data: buf[storeHeaderLen:]}, s)
	return buf, nil
}

// UnmarshalStore decodes a snapshot produced by MarshalStore (or
// Triangle's MarshalBinary) into a triangle of the kind recorded in the
// header. Corrupt
// or truncated input returns an error, never a panic.
func UnmarshalStore(data []byte) (Store, error) {
	k, _, _, err := decodeStoreHeader(data)
	if err != nil {
		return nil, err
	}
	// An empty triangle of the header's kind: UnmarshalBinary replaces
	// its dimensions and cells.
	m := newTriangle(0, 0, k)
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return m, nil
}
