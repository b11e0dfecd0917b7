package apsp

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// foreignStore hides a store's concrete type, so CountWithinByClass
// takes its EachPair fallback.
type foreignStore struct{ Store }

// classCensusOracle is CountWithinByClass spelled out over Get.
func classCensusOracle(s Store, class []int32, k int) []int64 {
	cnt := make([]int64, k*k)
	for i := 0; i < s.N(); i++ {
		for j := i + 1; j < s.N(); j++ {
			if s.Get(i, j) <= s.L() {
				cnt[int(class[i])*k+int(class[j])]++
			}
		}
	}
	return cnt
}

// TestCountWithinByClassBackings: every backing — the row kernel of
// the compact heap store, the overlay correction at depth one and two,
// and the EachPair fallback of packed, paged (both payload kinds) and
// foreign stores — yields the oracle's per-class-pair census, at sizes
// around the 64-vertex batch boundary and with k = 1, a few classes,
// and one class per vertex.
func TestCountWithinByClassBackings(t *testing.T) {
	dir := t.TempDir()
	for _, L := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 64, 65, 150} {
			g := randomGraph(n, 3/float64(max(n, 1)), int64(n+L))
			base := build(g, L)
			path := filepath.Join(dir, "s.store")
			snapshotFile(t, path, g, L, KindCompact)
			paged, err := OpenPagedStore(path, NewPageCache(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			packedPath := filepath.Join(dir, "p.store")
			snapshotFile(t, packedPath, g, L, KindPacked)
			pagedPacked, err := OpenPagedStore(packedPath, NewPageCache(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			ov := NewOverlay(base)
			mutateRandom(ov, 4*n, int64(L))
			deep := NewOverlay(ov)
			mutateRandom(deep, 4*n, int64(L+1))
			stores := map[string]Store{
				"compact":      base,
				"packed":       asKind(base, KindPacked),
				"paged":        paged,
				"paged/packed": pagedPacked,
				"foreign":      foreignStore{base},
				"overlay":      ov,
				"overlay2":     deep,
				"overlay/paged": func() Store {
					o := NewOverlay(paged)
					mutateRandom(o, 2*n, 9)
					return o
				}(),
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for _, k := range []int{1, 3, max(n, 1)} {
				class := make([]int32, n)
				for v := range class {
					class[v] = int32(rng.Intn(k))
				}
				for name, s := range stores {
					want := classCensusOracle(s, class, k)
					got := make([]int64, k*k)
					CountWithinByClass(s, class, k, got)
					if !slices.Equal(got, want) {
						t.Errorf("L=%d n=%d k=%d %s: census %v, want %v", L, n, k, name, got, want)
					}
				}
			}
			pagedPacked.Close()
			paged.Close()
		}
	}
}

// TestOverlayPairInvertsIndex: trianglePair maps every triangle offset
// back to the pair the overlay's index packs into it.
func TestOverlayPairInvertsIndex(t *testing.T) {
	for _, n := range []int{2, 3, 64, 65, 101} {
		o := NewOverlay(NewCompactMatrix(n, 2))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if a, b := trianglePair(n, o.index(i, j)); a != i || b != j {
					t.Fatalf("n=%d: trianglePair(index(%d, %d)) = (%d, %d)", n, i, j, a, b)
				}
			}
		}
	}
}

// TestCountWithinByClassRejectsShortInputs: a class vector of the
// wrong length or too few counters panics instead of miscounting.
func TestCountWithinByClassRejectsShortInputs(t *testing.T) {
	s := NewCompactMatrix(4, 2)
	for name, f := range map[string]func(){
		"class": func() { CountWithinByClass(s, make([]int32, 3), 1, make([]int64, 1)) },
		"cnt":   func() { CountWithinByClass(s, make([]int32, 4), 2, make([]int64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: short input accepted", name)
				}
			}()
			f()
		}()
	}
}
