package apsp

import (
	"encoding/binary"
	"fmt"
)

// Binary snapshot format for distance stores, shared by both backings.
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
// Decoding is strict: a wrong magic, unknown version or kind, a
// truncated or oversized payload, or any cell outside [1, L+1] is an
// error — never a panic and never a silently misloaded store. The
// sizes decoded from the header are validated against the actual
// payload length BEFORE any allocation, so a corrupt header cannot
// force a huge allocation.

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
// overflow.
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
	const maxDim = 1 << 31
	if un > maxDim || ul > maxDim {
		return 0, 0, 0, fmt.Errorf("apsp: store snapshot dimensions n=%d L=%d out of range", un, ul)
	}
	return k, int(un), int(ul), nil
}

// MarshalBinary encodes the compact store in the versioned snapshot
// format. It implements encoding.BinaryMarshaler.
func (m *CompactMatrix) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, storeHeaderLen+len(m.data))
	buf = appendStoreHeader(buf, KindCompact, m.n, m.l)
	return append(buf, m.data...), nil
}

// UnmarshalBinary overwrites m with a compact-store snapshot. It
// implements encoding.BinaryUnmarshaler and rejects snapshots of the
// packed kind; use UnmarshalStore when the kind is not known up front.
func (m *CompactMatrix) UnmarshalBinary(data []byte) error {
	k, n, l, err := decodeStoreHeader(data)
	if err != nil {
		return err
	}
	if k != KindCompact {
		return fmt.Errorf("apsp: snapshot holds a %v store, not compact", k)
	}
	if l > MaxCompactL {
		return fmt.Errorf("apsp: compact snapshot claims L=%d > MaxCompactL=%d", l, MaxCompactL)
	}
	payload := data[storeHeaderLen:]
	if want := cellCount(uint64(n)); uint64(len(payload)) != want {
		return fmt.Errorf("apsp: compact snapshot payload is %d bytes, want %d for n=%d", len(payload), want, n)
	}
	far := uint8(l + 1)
	for i, c := range payload {
		if c < 1 || c > far {
			return fmt.Errorf("apsp: compact snapshot cell %d holds %d outside [1, %d]", i, c, far)
		}
	}
	m.n, m.l = n, l
	m.data = append([]uint8(nil), payload...)
	return nil
}

// MarshalBinary encodes the packed store in the versioned snapshot
// format. It implements encoding.BinaryMarshaler.
func (m *Matrix) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, storeHeaderLen+4*len(m.data))
	buf = appendStoreHeader(buf, KindPacked, m.n, m.l)
	for _, c := range m.data {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return buf, nil
}

// UnmarshalBinary overwrites m with a packed-store snapshot. It
// implements encoding.BinaryUnmarshaler and rejects snapshots of the
// compact kind; use UnmarshalStore when the kind is not known up front.
func (m *Matrix) UnmarshalBinary(data []byte) error {
	k, n, l, err := decodeStoreHeader(data)
	if err != nil {
		return err
	}
	if k != KindPacked {
		return fmt.Errorf("apsp: snapshot holds a %v store, not packed", k)
	}
	payload := data[storeHeaderLen:]
	cells := cellCount(uint64(n))
	if uint64(len(payload)) != 4*cells {
		return fmt.Errorf("apsp: packed snapshot payload is %d bytes, want %d for n=%d", len(payload), 4*cells, n)
	}
	far := uint32(l + 1)
	out := make([]int32, cells)
	for i := range out {
		c := binary.LittleEndian.Uint32(payload[4*i:])
		if c < 1 || c > far {
			return fmt.Errorf("apsp: packed snapshot cell %d holds %d outside [1, %d]", i, c, far)
		}
		out[i] = int32(c)
	}
	m.n, m.l = n, l
	m.data = out
	return nil
}

// MarshalStore encodes any Store in the versioned snapshot format.
// Heap stores encode directly, mapped and paged views hand back their
// snapshot bytes, and every other store (an overlay, a foreign
// implementation) is first copied into its heap twin by Copy.
func MarshalStore(s Store) ([]byte, error) {
	switch t := s.(type) {
	case *CompactMatrix:
		return t.MarshalBinary()
	case *Matrix:
		return t.MarshalBinary()
	case *MappedStore:
		// The mapping already holds the snapshot bytes; copy them out so
		// the result outlives a Close of the store.
		return append([]byte(nil), t.raw...), nil
	case *PagedStore:
		// The file holds the snapshot bytes; read them out whole, as the
		// mapped case copies its mapping.
		return t.snapshot()
	}
	c := NewStore(s.N(), s.L(), KindOf(s))
	Copy(c, s)
	return MarshalStore(c)
}

// UnmarshalStore decodes a snapshot produced by MarshalStore (or either
// MarshalBinary), selecting the backing recorded in the header. Corrupt
// or truncated input returns an error, never a panic.
func UnmarshalStore(data []byte) (Store, error) {
	k, _, _, err := decodeStoreHeader(data)
	if err != nil {
		return nil, err
	}
	switch k {
	case KindCompact:
		m := &CompactMatrix{}
		if err := m.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return m, nil
	default:
		m := &Matrix{}
		if err := m.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		return m, nil
	}
}
