package apsp

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// foreignStore hides a store's concrete type, so the row walk reads it
// through Get.
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

// straddlingRow returns the first row of an n-vertex triangle whose
// cells cross a page boundary of a kind-k snapshot, and the column of
// the row's first cell past that boundary; i is -1 when no row does.
func straddlingRow(n int, k Kind) (i, j int) {
	w := k.width()
	for i := 0; i < n-1; i++ {
		first := int64(rowOffset(n, i)) * w
		if next := (first/pageSize + 1) * pageSize; next < first+int64(n-1-i)*w {
			return i, i + 1 + int((next-first)/w)
		}
	}
	return -1, 0
}

// dirtyStraddlingRow overrides, in o, the two ends of the first row
// that crosses a page boundary of a kind-k snapshot and the cells on
// either side of that boundary, each with a value its base does not
// hold there.
func dirtyStraddlingRow(o *Overlay, k Kind) {
	i, j := straddlingRow(o.N(), k)
	if i < 0 {
		return
	}
	for _, c := range []int{i + 1, j - 1, j, o.N() - 1} {
		o.Set(i, c, o.Get(i, c)%o.Far()+1)
	}
}

// TestCountWithinByClassBackings: the row walk of every backing — the
// compact and packed heap stores, overlays at depth one and two, paged
// stores of both payload kinds, with rows that straddle a page of the
// one-page cache from n = 400 on, overlays dirtied in such a row, and
// a foreign store read through Get — yields the oracle's
// per-class-pair census, at sizes around the 64-vertex batch boundary
// and with k = 1, a few classes, and one class per vertex.
func TestCountWithinByClassBackings(t *testing.T) {
	dir := t.TempDir()
	for _, L := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 64, 65, 150, 400} {
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
				"overlay/paged/straddle": func() Store {
					o := NewOverlay(paged)
					dirtyStraddlingRow(o, KindCompact)
					return o
				}(),
				"overlay/paged/packed/straddle": func() Store {
					o := NewOverlay(pagedPacked)
					dirtyStraddlingRow(o, KindPacked)
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
// back to the pair pairIndex, the index every backing and the overlay
// share, packs into it.
func TestOverlayPairInvertsIndex(t *testing.T) {
	for _, n := range []int{2, 3, 64, 65, 101} {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if a, b := trianglePair(n, pairIndex(n, i, j)); a != i || b != j {
					t.Fatalf("n=%d: trianglePair(index(%d, %d)) = (%d, %d)", n, i, j, a, b)
				}
			}
		}
	}
}

// TestCountWithinByClassRejectsShortInputs: a class vector of the
// wrong length or too few counters panics instead of miscounting.
func TestCountWithinByClassRejectsShortInputs(t *testing.T) {
	s := NewStore(4, 2, KindCompact)
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

// trianglePair inverts pairIndex: the pair i < j stored at offset idx.
// Row i starts at offset i*(2n-i-1)/2, so i is found by binary search.
func trianglePair(n int, idx int64) (i, j int) {
	nn := int64(n)
	start := func(r int64) int64 { return r * (2*nn - r - 1) / 2 }
	lo, hi := int64(0), nn-1 // the row lies in [lo, hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if start(mid) <= idx {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int(lo), int(idx - start(lo) + lo + 1)
}
