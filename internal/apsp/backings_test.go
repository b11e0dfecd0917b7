package apsp

import (
	"path/filepath"
	"testing"
)

// eachPairStream flattens a store's EachPair emission into one slice so
// two backings can be compared cell-for-cell — same pairs, same order,
// same distances, which is strictly stronger than Equal (it pins the
// iteration contract the opacity tracker depends on).
func eachPairStream(s Store) []int {
	out := make([]int, 0, 3*s.N())
	s.EachPair(func(i, j, d int) { out = append(out, i, j, d) })
	return out
}

// TestRMATBackingsEquivalenceMatrix extends the engines × kinds matrix
// to the out-of-core view: on RMAT graphs, the paged view of a streamed
// snapshot of each kind, an overlay over each of them, and an overlay
// over each heap kind all produce an EachPair stream identical to the
// compact oracle's.
func TestRMATBackingsEquivalenceMatrix(t *testing.T) {
	dir := t.TempDir()
	for _, L := range []int{2, 3} {
		g := rmatGraph(t, 150, 450, int64(10+L))
		oracle := build(g, L)
		want := eachPairStream(oracle)

		check := func(name string, s Store) {
			t.Helper()
			got := eachPairStream(s)
			if len(got) != len(want) {
				t.Errorf("L=%d %s: %d cells, want %d", L, name, len(got)/3, len(want)/3)
				return
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("L=%d %s: EachPair diverges from compact oracle at flat index %d", L, name, k)
					return
				}
			}
		}

		check("packed", asKind(build(g, L), KindPacked))
		check("overlay/compact", NewOverlay(oracle))
		check("overlay/packed", NewOverlay(asKind(build(g, L), KindPacked)))

		for _, kind := range []Kind{KindCompact, KindPacked} {
			path := filepath.Join(dir, kind.String()+".store")
			snapshotFile(t, path, g, L, kind)
			// A deliberately tiny budget: the whole matrix must still be
			// byte-identical when every page is faulted in and evicted on
			// the way through.
			paged, err := OpenPagedStore(path, NewPageCache(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			check("paged/"+kind.String(), paged)
			check("overlay/paged/"+kind.String(), NewOverlay(paged))

			paged.Close()
		}
	}
}

// TestKindPagedPlumbing: "paged" parses and cannot be built from
// scratch; a built store's backing comes from KindFor(L) alone.
func TestKindPagedPlumbing(t *testing.T) {
	k, err := ParseKind("paged")
	if err != nil || k != KindPaged {
		t.Fatalf("ParseKind(paged) = %v, %v", k, err)
	}
	if k.String() != "paged" {
		t.Fatalf("KindPaged.String() = %q", k.String())
	}
	if got := KindFor(3); got != KindCompact {
		t.Fatalf("KindFor(3) = %v, want compact", got)
	}
	if got := KindFor(MaxCompactL + 1); got != KindPacked {
		t.Fatalf("KindFor(big L) = %v, want packed", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore(KindPaged) did not panic")
		}
	}()
	NewStore(4, 2, KindPaged)
}

// TestParseKindMapped: the names of the retired memory-mapped view
// still parse, as the paged residency, so older request hints and
// legacy snapshot file names keep resolving.
func TestParseKindMapped(t *testing.T) {
	for _, spelling := range []string{"mapped", "mmap"} {
		k, err := ParseKind(spelling)
		if err != nil || k != KindPaged {
			t.Fatalf("ParseKind(%q) = %v, %v, want paged", spelling, k, err)
		}
	}
}
