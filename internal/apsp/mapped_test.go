package apsp

import (
	"os"
	"path/filepath"
	"testing"
)

// writeStoreFile marshals s into dir and returns the file path.
func writeStoreFile(t *testing.T, dir string, s Store) string {
	t.Helper()
	data, err := MarshalStore(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedStoreRoundTrip: both payload kinds open as mapped views
// that agree cell-for-cell with the source store.
func TestMappedStoreRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindCompact, KindPacked} {
		g := randomGraph(40, 0.15, int64(kind)+1)
		src := asKind(build(g, 3), kind)
		path := writeStoreFile(t, t.TempDir(), src)
		m, err := OpenMappedStore(path)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if m.N() != src.N() || m.L() != src.L() || m.Far() != src.Far() {
			t.Fatalf("%v: mapped dims (%d, %d), want (%d, %d)", kind, m.N(), m.L(), src.N(), src.L())
		}
		if m.Kind() != kind || KindOf(m) != kind {
			t.Fatalf("%v: mapped reports payload kind %v", kind, m.Kind())
		}
		if !Equal(m, src) {
			t.Fatalf("%v: mapped view disagrees with source", kind)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
}

// TestMappedStoreIsReadOnly: the mapped view stays behind the read-side
// Store contract — it must never satisfy MutableStore, so a write to a
// shared persistent artifact is a compile error, not a runtime panic.
func TestMappedStoreIsReadOnly(t *testing.T) {
	g := randomGraph(10, 0.3, 1)
	path := writeStoreFile(t, t.TempDir(), build(g, 2))
	m, err := OpenMappedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok := Store(m).(MutableStore); ok {
		t.Fatal("MappedStore must not implement MutableStore")
	}
}

// TestMappedStoreCloneIndependence: a Clone is mutable and detached —
// writes to it never show through the mapping or the file.
func TestMappedStoreCloneIndependence(t *testing.T) {
	g := randomGraph(20, 0.2, 2)
	src := build(g, 3)
	path := writeStoreFile(t, t.TempDir(), src)
	m, err := OpenMappedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := m.Clone().(MutableStore)
	var i, j int
	found := false
	src.EachPair(func(x, y, d int) {
		if !found && d > 1 {
			i, j, found = x, y, true
		}
	})
	if !found {
		t.Skip("no mutable pair in fixture")
	}
	c.Set(i, j, 1)
	if m.Get(i, j) == 1 {
		t.Fatal("mutating a Clone changed the mapped view")
	}
	if !Equal(m, src) {
		t.Fatal("mapped view drifted from source after Clone mutation")
	}
}

// TestOpenMappedStoreRejectsCorrupt: bad magic, truncated payloads, and
// short files fail at open with an error, never a panic.
func TestOpenMappedStoreRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(12, 0.3, 3)
	data, err := MarshalStore(build(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"badmagic":  append([]byte("XXXX"), data[4:]...),
		"truncated": data[:len(data)-3],
		"short":     {1, 2, 3},
		"extra":     append(append([]byte(nil), data...), 0xFF),
	}
	for name, payload := range cases {
		path := filepath.Join(dir, name+".store")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenMappedStore(path); err == nil {
			m.Close()
			t.Errorf("%s: corrupt snapshot opened without error", name)
		}
	}
	if _, err := OpenMappedStore(filepath.Join(dir, "missing.store")); err == nil {
		t.Error("missing file opened without error")
	}
}

// TestMappedStoreCorruptCellCaughtByClone documents the validation
// tradeoff: a cell outside [1, Far] passes open (no full-file scan)
// but cannot leak into a mutable store — Clone's decode rejects it.
func TestMappedStoreCorruptCellCaughtByClone(t *testing.T) {
	g := randomGraph(10, 0.4, 4)
	data, err := MarshalStore(build(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 250 // far beyond Far = 3
	path := filepath.Join(t.TempDir(), "cell.store")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMappedStore(path)
	if err != nil {
		t.Fatalf("open rejected a corrupt cell it should defer: %v", err)
	}
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a corrupt-cell snapshot did not panic")
		}
	}()
	m.Clone()
}

// TestMarshalMappedStore: re-marshaling a mapped view reproduces the
// snapshot bytes, and they outlive Close.
func TestMarshalMappedStore(t *testing.T) {
	g := randomGraph(15, 0.25, 5)
	src := build(g, 3)
	want, err := MarshalStore(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.store")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMappedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalStore(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if len(got) != len(want) {
		t.Fatalf("re-marshal is %d bytes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("re-marshal differs at byte %d", i)
		}
	}
}

// TestParseKindMapped: the request-level spelling resolves, and a
// mapped view is opened from a file, never built.
func TestParseKindMapped(t *testing.T) {
	for _, spelling := range []string{"mapped", "mmap"} {
		k, err := ParseKind(spelling)
		if err != nil || k != KindMapped {
			t.Fatalf("ParseKind(%q) = %v, %v", spelling, k, err)
		}
	}
	if KindMapped.String() != "mapped" {
		t.Fatalf("KindMapped.String() = %q", KindMapped.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore(KindMapped) did not panic")
		}
	}()
	NewStore(4, 2, KindMapped)
}
