package apsp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// serializeTestGraph returns a deterministic sparse graph with several
// components, so stores hold a mix of real distances and Far cells.
func serializeTestGraph(n int, seed int64) *graph.Graph {
	g := graph.New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestSerializeRoundTrip: marshal/unmarshal equality for both store
// kinds across the sweep and both oracles — the snapshot a warm restart
// reloads must be indistinguishable from the store it replaces.
func TestSerializeRoundTrip(t *testing.T) {
	g := serializeTestGraph(60, 7)
	for _, L := range []int{1, 3, 6} {
		for engine, run := range map[string]func(*graph.Graph, int) MutableStore{"sweep": build, "fw": LPrunedFW, "pointer": PointerFW} {
			for _, kind := range []Kind{KindCompact, KindPacked} {
				s := asKind(run(g, L), kind)
				data, err := MarshalStore(s)
				if err != nil {
					t.Fatalf("L=%d %v/%v: marshal: %v", L, engine, kind, err)
				}
				got, err := UnmarshalStore(data)
				if err != nil {
					t.Fatalf("L=%d %v/%v: unmarshal: %v", L, engine, kind, err)
				}
				if KindOf(got) != kind {
					t.Fatalf("L=%d %v/%v: round-trip changed kind to %v", L, engine, kind, KindOf(got))
				}
				if !Equal(s, got) {
					t.Fatalf("L=%d %v/%v: round-trip changed contents", L, engine, kind)
				}
			}
		}
	}
}

// TestSerializeRoundTripEmptyAndTiny: degenerate dimensions must
// survive the trip too.
func TestSerializeRoundTripEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		for _, kind := range []Kind{KindCompact, KindPacked} {
			s := NewStore(n, 2, kind)
			data, err := MarshalStore(s)
			if err != nil {
				t.Fatalf("n=%d %v: marshal: %v", n, kind, err)
			}
			got, err := UnmarshalStore(data)
			if err != nil {
				t.Fatalf("n=%d %v: unmarshal: %v", n, kind, err)
			}
			if !Equal(s, got) {
				t.Fatalf("n=%d %v: round-trip changed contents", n, kind)
			}
		}
	}
}

// corruptStoreSnapshots returns valid compact and packed snapshots of
// a 20-vertex L=3 store and a table of corruptions of them.
func corruptStoreSnapshots(t testing.TB) (valid [][]byte, cases []corruptCase) {
	g := serializeTestGraph(20, 3)
	compact, err := MarshalStore(Build(g, 3, BuildOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := MarshalStore(asKind(build(g, 3), KindPacked))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	return [][]byte{compact, packed}, []corruptCase{
		{"empty", nil},
		{"truncated header", compact[:storeHeaderLen-1]},
		{"truncated payload", compact[:len(compact)-1]},
		{"trailing data", append(append([]byte(nil), compact...), 0x02)},
		{"bad magic", mutate(compact, func(b []byte) { b[0] = 'X' })},
		{"bad version", mutate(compact, func(b []byte) { b[4] = 99 })},
		{"bad kind", mutate(compact, func(b []byte) { b[5] = 7 })},
		{"zero cell", mutate(compact, func(b []byte) { b[storeHeaderLen] = 0 })},
		{"cell above far", mutate(compact, func(b []byte) { b[storeHeaderLen] = 5 })}, // far = 4 at L=3
		{"huge n", mutate(compact, func(b []byte) { b[6], b[7], b[8] = 0xff, 0xff, 0xff })},
		{"packed zero cell", mutate(packed, func(b []byte) {
			b[storeHeaderLen], b[storeHeaderLen+1], b[storeHeaderLen+2], b[storeHeaderLen+3] = 0, 0, 0, 0
		})},
		{"packed truncated", packed[:len(packed)-2]},
		{"compact L above MaxCompactL", mutate(compact, func(b []byte) { binary.LittleEndian.PutUint64(b[14:], MaxCompactL+1) })},
		{"packed L without room for Far", mutate(packed, func(b []byte) { binary.LittleEndian.PutUint64(b[14:], math.MaxInt32) })},
	}
}

// addStoreSeeds seeds a snapshot fuzz target with the valid snapshots
// and every corruption of them.
func addStoreSeeds(f *testing.F) {
	valid, cases := corruptStoreSnapshots(f)
	for _, data := range valid {
		f.Add(data)
	}
	for _, tc := range cases {
		f.Add(tc.data)
	}
}

// corruptCase is one named corruption of a snapshot.
type corruptCase struct {
	name string
	data []byte
}

// TestUnmarshalRejectsCorruptInput: every corruption is an error (with
// a stable prefix), never a panic and never a silently wrong store.
func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	_, cases := corruptStoreSnapshots(t)
	for _, tc := range cases {
		if _, err := UnmarshalStore(tc.data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
	}
}

// FuzzUnmarshalStore drives the LOPS decoder the registry feeds with
// snapshot files and network bytes. It must never panic, and decoding
// is strict, so every snapshot it accepts re-encodes to the same bytes
// and holds only cells in [1, L+1].
func FuzzUnmarshalStore(f *testing.F) {
	addStoreSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalStore(data)
		if err != nil {
			return
		}
		out, err := MarshalStore(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot re-encodes differently (n=%d L=%d kind=%v)", s.N(), s.L(), KindOf(s))
		}
		s.EachPair(func(i, j, d int) {
			if d < 1 || d > s.Far() {
				t.Fatalf("accepted cell (%d, %d) = %d outside [1, %d]", i, j, d, s.Far())
			}
		})
	})
}

// FuzzOpenPagedStore drives the paged decoder with the same bytes as
// FuzzUnmarshalStore, written to a file. Opening must never panic. A
// snapshot the heap decoder accepts must open as a view equal to the
// decoded store that re-encodes to the input. The view checks only the
// header and the length, deferring the cells, so a snapshot the heap
// decoder refuses may open only when EachPair shows a cell outside
// [1, Far].
func FuzzOpenPagedStore(f *testing.F) {
	addStoreSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ps, openErr := OpenPagedStore(path, NewPageCache(pageSize))
		if openErr == nil {
			defer ps.Close()
		}
		s, err := UnmarshalStore(data)
		if err == nil {
			if openErr != nil {
				t.Fatalf("OpenPagedStore refused a snapshot UnmarshalStore accepts: %v", openErr)
			}
			if !Equal(ps, s) {
				t.Fatalf("paged view differs from the decoded store (n=%d L=%d kind=%v)", s.N(), s.L(), KindOf(s))
			}
			out, err := MarshalStore(ps)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("paged view re-encodes differently")
			}
			return
		}
		if openErr != nil {
			return
		}
		outside := false
		ps.EachPair(func(_, _, d int) { outside = outside || d < 1 || d > ps.Far() })
		if !outside {
			t.Fatalf("OpenPagedStore opened a snapshot UnmarshalStore refuses (%v) with every cell in [1, %d]", err, ps.Far())
		}
	})
}

// TestCompactSnapshotOversizedLRejected: a compact header claiming
// L > MaxCompactL promises a Far no one-byte cell can hold, so both the
// heap decoder and the paged view refuse the file.
func TestCompactSnapshotOversizedLRejected(t *testing.T) {
	data, err := MarshalStore(NewStore(4, 2, KindCompact))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[14:], 300)
	if _, err := UnmarshalStore(data); err == nil {
		t.Error("UnmarshalStore accepted a compact snapshot with L=300")
	}
	path := filepath.Join(t.TempDir(), "oversized.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ps, err := OpenPagedStore(path, NewPageCache(pageSize)); err == nil {
		defer ps.Close()
		t.Errorf("OpenPagedStore accepted a compact snapshot with L=300 (Far()=%d)", ps.Far())
	}
}

// TestUnmarshalKindMismatch: each width's UnmarshalBinary refuses
// snapshots of the other kind instead of misreading them.
func TestUnmarshalKindMismatch(t *testing.T) {
	g := serializeTestGraph(10, 5)
	compact, _ := MarshalStore(Build(g, 2, BuildOptions{}))
	packed, _ := MarshalStore(asKind(build(g, 2), KindPacked))
	var m Triangle[int32]
	if err := m.UnmarshalBinary(compact); err == nil || !strings.Contains(err.Error(), "not packed") {
		t.Errorf("Triangle[int32] accepted a compact snapshot (err=%v)", err)
	}
	var c Triangle[uint8]
	if err := c.UnmarshalBinary(packed); err == nil || !strings.Contains(err.Error(), "not compact") {
		t.Errorf("Triangle[uint8] accepted a packed snapshot (err=%v)", err)
	}
}

// TestCloneIndependence: mutating a clone never leaks into the
// original, for either backing. Run under -race in CI with concurrent
// readers of the original, mirroring how the registry shares one
// cached store with many anonymization runs that each clone it.
func TestCloneIndependence(t *testing.T) {
	g := serializeTestGraph(40, 11)
	for _, kind := range []Kind{KindCompact, KindPacked} {
		orig := asKind(build(g, 3), kind)
		want := asKind(build(g, 3), kind)

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				clone := orig.Clone().(MutableStore)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 1000; i++ {
					u, v := rng.Intn(orig.N()), rng.Intn(orig.N())
					if u != v {
						clone.Set(u, v, 1+rng.Intn(clone.Far()))
					}
				}
			}(int64(w))
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Concurrent readers of the shared original: any write
				// reaching it would trip the race detector.
				orig.EachPair(func(i, j, d int) {})
			}()
		}
		wg.Wait()
		if !Equal(orig, want) {
			t.Fatalf("%v: mutating clones changed the original", kind)
		}
	}
}
