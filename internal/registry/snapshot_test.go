package registry

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/apsp"
)

// testGraphWithStore registers a small graph and builds one distance
// store under it, returning the entry.
func testGraphWithStore(t testing.TB, r *Registry) *Graph {
	t.Helper()
	g, _, err := r.Put(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := g.Store(2); hit {
		t.Fatal("first Store call reported a store hit")
	}
	return g
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := New(Config{})
	g := testGraphWithStore(t, src)
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dst := New(Config{})
	got, created, installed, skipped, err := dst.InstallSnapshot(g.ID(), data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("install on an empty registry reported created=false")
	}
	if got.ID() != g.ID() {
		t.Fatalf("installed id %s, want %s", got.ID(), g.ID())
	}
	if installed != 1 || skipped != 0 {
		t.Fatalf("installed=%d skipped=%d, want 1/0", installed, skipped)
	}

	// The adopted store must serve as a hit: zero APSP builds paid on
	// the replica.
	if _, hit := got.Store(2); !hit {
		t.Fatal("adopted store did not serve as a store hit")
	}
	st := dst.Stats()
	if st.Builds != 0 {
		t.Fatalf("replica paid %d APSP builds, want 0", st.Builds)
	}
	if st.Hydrations != 1 || st.HydratedStores != 1 {
		t.Fatalf("hydrations=%d hydrated_stores=%d, want 1/1", st.Hydrations, st.HydratedStores)
	}
}

func TestSnapshotInstallIdempotent(t *testing.T) {
	src := New(Config{})
	g := testGraphWithStore(t, src)
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Config{})
	if _, _, _, _, err := dst.InstallSnapshot(g.ID(), data, 0); err != nil {
		t.Fatal(err)
	}
	_, created, installed, skipped, err := dst.InstallSnapshot(g.ID(), data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("second install reported created=true")
	}
	// The store slot already exists; the section is skipped, never
	// replaced.
	if installed != 0 || skipped != 1 {
		t.Fatalf("second install installed=%d skipped=%d, want 0/1", installed, skipped)
	}
}

func TestSnapshotDigestMismatch(t *testing.T) {
	src := New(Config{})
	g := testGraphWithStore(t, src)
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Config{})
	_, _, _, _, err = dst.InstallSnapshot("not-the-digest", data, 0)
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	if dst.Len() != 0 {
		t.Fatal("mismatched envelope installed a graph anyway")
	}
}

// corruptSnapshots returns a valid envelope for a 6-cycle with its L=2
// store, plus the malformed variants every decoder must reject.
func corruptSnapshots(t testing.TB) (g *Graph, valid []byte, cases map[string][]byte) {
	g = testGraphWithStore(t, New(Config{}))
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return g, data, map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), data[4:]...),
		"truncated": data[:len(data)/2],
		"trailing":  append(append([]byte{}, data...), 0xFF),
		"version 1": legacySnapshot(t, g),
	}
}

// legacySnapshot encodes g and its L=2 store as a version-1 envelope,
// whose store sections carry an (L, engine, kind) key before the LOPS
// bytes.
func legacySnapshot(t testing.TB, g *Graph) []byte {
	st, _ := g.Store(2)
	sb, err := apsp.MarshalStore(st)
	if err != nil {
		t.Fatal(err)
	}
	str16 := func(buf []byte, s string) []byte {
		return append(binary.LittleEndian.AppendUint16(buf, uint16(len(s))), s...)
	}
	gb := encodeGraphSnapshot(g.N(), g.Edges())
	buf := append([]byte(snapshotMagic), 1)
	buf = append(binary.LittleEndian.AppendUint64(buf, uint64(len(gb))), gb...)
	buf = binary.LittleEndian.AppendUint64(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, 2)
	buf = str16(str16(buf, "auto"), "compact")
	return append(binary.LittleEndian.AppendUint64(buf, uint64(len(sb))), sb...)
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g, _, cases := corruptSnapshots(t)
	for name, body := range cases {
		dst := New(Config{})
		if _, _, _, _, err := dst.InstallSnapshot(g.ID(), body, 0); err == nil {
			t.Errorf("%s: corrupt envelope installed without error", name)
		}
		if dst.Len() != 0 {
			t.Errorf("%s: corrupt envelope left a graph behind", name)
		}
	}
}

// TestSnapshotSkipsUnderivedBacking: a section holding valid cells in a
// backing its L does not derive (packed at L=2) is skipped, not
// adopted.
func TestSnapshotSkipsUnderivedBacking(t *testing.T) {
	g := testGraphWithStore(t, New(Config{}))
	st, _ := g.Store(2)
	packed := apsp.NewStore(st.N(), 2, apsp.KindPacked)
	apsp.Copy(packed, st)
	sb, err := apsp.MarshalStore(packed)
	if err != nil {
		t.Fatal(err)
	}
	gb := encodeGraphSnapshot(g.N(), g.Edges())
	data := append([]byte(snapshotMagic), snapshotVersion)
	data = append(binary.LittleEndian.AppendUint64(data, uint64(len(gb))), gb...)
	data = binary.LittleEndian.AppendUint64(data, 1)
	data = append(binary.LittleEndian.AppendUint64(data, uint64(len(sb))), sb...)
	_, _, installed, skipped, err := New(Config{}).InstallSnapshot(g.ID(), data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if installed != 0 || skipped != 1 {
		t.Fatalf("installed=%d skipped=%d, want 0/1", installed, skipped)
	}
}

// FuzzDecodeSnapshot drives the envelope decoder PUT
// /v1/graphs/{id}/snapshot feeds with network bytes. It must never
// panic, and every store it accepts must cover the decoded graph in the
// backing its L derives.
func FuzzDecodeSnapshot(f *testing.F) {
	_, valid, cases := corruptSnapshots(f)
	f.Add(valid)
	for _, body := range cases {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, canonical, id, stores, _, err := decodeSnapshot(data, 1<<12)
		if err != nil {
			return
		}
		if id != Digest(n, canonical) {
			t.Fatalf("decoded id %s is not the digest of the decoded graph", id)
		}
		for _, st := range stores {
			if st.N() != n || apsp.KindOf(st) != apsp.KindFor(st.L()) {
				t.Fatalf("accepted store n=%d L=%d kind=%v for a graph of n=%d", st.N(), st.L(), apsp.KindOf(st), n)
			}
		}
	})
}

func TestSnapshotCorruptStoreSectionSkipped(t *testing.T) {
	src := New(Config{})
	g := testGraphWithStore(t, src)
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last store section's payload: the envelope
	// framing stays intact, the LOPS body does not.
	data[len(data)-1] ^= 0xFF
	dst := New(Config{})
	_, _, installed, skipped, err := dst.InstallSnapshot(g.ID(), data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if installed != 0 || skipped != 1 {
		t.Fatalf("installed=%d skipped=%d, want 0/1", installed, skipped)
	}
	// The graph itself still installed and can rebuild the store.
	if dst.Len() != 1 {
		t.Fatal("graph was not installed alongside the bad section")
	}
}

func TestSnapshotRespectsVertexBound(t *testing.T) {
	src := New(Config{})
	g := testGraphWithStore(t, src)
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Config{})
	if _, _, _, _, err := dst.InstallSnapshot(g.ID(), data, 3); err == nil {
		t.Fatal("snapshot larger than maxN installed without error")
	}
}

func TestSnapshotPersistsWriteThrough(t *testing.T) {
	src := New(Config{})
	g := testGraphWithStore(t, src)
	data, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dst := New(Config{Dir: dir})
	if _, _, _, _, err := dst.InstallSnapshot(g.ID(), data, 0); err != nil {
		t.Fatal(err)
	}
	// A restart recovers both the graph and the adopted store.
	re := New(Config{Dir: dir})
	got, ok := re.Get(g.ID())
	if !ok {
		t.Fatal("hydrated graph did not survive restart")
	}
	if _, hit := got.Store(2); !hit {
		t.Fatal("hydrated store did not survive restart")
	}
}
