package apsp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// eachPairSnapshot is the snapshot encoding of s spelled out over
// EachPair: the oracle every MarshalStore fast path must reproduce.
func eachPairSnapshot(s Store) []byte {
	k := KindOf(s)
	buf := appendStoreHeader(nil, k, s.N(), s.L())
	s.EachPair(func(_, _, d int) {
		if k == KindCompact {
			buf = append(buf, byte(d))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		}
	})
	return buf
}

// foreignMutable hides a mutable store's concrete type, so Copy into it
// takes the generic Set path.
type foreignMutable struct{ MutableStore }

// scribble writes one overlay layer the way repair chains and probe /
// revert cycles do: random cells, a cell set to Far(), a clamped write
// above Far(), the first and the last row, a cell written and then
// restored to its base value, and a cell that a lower layer overrides
// written back to the innermost base's value.
func scribble(o *Overlay, innermost Store, rng *rand.Rand) {
	n := o.N()
	if n < 2 {
		return
	}
	cell := func() (int, int) {
		i := rng.Intn(n - 1)
		return i, i + 1 + rng.Intn(n-1-i)
	}
	for k := 0; k < 2*n; k++ {
		i, j := cell()
		o.Set(i, j, 1+rng.Intn(o.Far()))
	}
	i, j := cell()
	o.Set(j, i, o.Far())
	i, j = cell()
	o.Set(i, j, o.Far()+7)
	o.Set(0, 1+rng.Intn(n-1), 1)
	o.Set(n-2, n-1, 1+rng.Intn(o.Far()))
	i, j = cell()
	was := o.Base().Get(i, j)
	o.Set(i, j, 1+was%o.Far())
	o.Set(i, j, was)
	if lower, ok := o.Base().(*Overlay); ok {
		for idx := range lower.dirty {
			i, j := trianglePair(n, idx)
			o.Set(i, j, innermost.Get(i, j))
			break
		}
	}
}

// TestCopyMatchesEachPair: for every base backing (compact and packed
// heap, a paged snapshot of the built kind, a foreign
// wrapper) under overlay chains of depth 0 to 5, MarshalStore is
// byte-identical to the EachPair encoding, Compact is Equal to the
// chain, and Copy into every kind of destination reproduces it.
func TestCopyMatchesEachPair(t *testing.T) {
	dir := t.TempDir()
	for _, L := range []int{2, MaxCompactL + 1} {
		for _, n := range []int{0, 1, 2, 65, 300} {
			g := randomGraph(n, 3/float64(max(n, 1)), int64(n+L))
			kind := KindFor(L)
			built := build(g, L)
			path := filepath.Join(dir, fmt.Sprintf("n%d_l%d.store", n, L))
			snapshotFile(t, path, g, L, kind)
			paged, err := OpenPagedStore(path, NewPageCache(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			bases := map[string]Store{
				kind.String(): built,
				"paged":       paged,
				"foreign":     foreignStore{built},
			}
			if kind == KindCompact {
				bases["packed"] = asKind(built, KindPacked)
			}
			for name, base := range bases {
				rng := rand.New(rand.NewSource(int64(n)))
				var s Store = base
				for depth := 0; depth <= 5; depth++ {
					if depth > 0 {
						o := NewOverlay(s)
						scribble(o, base, rng)
						s = o
					}
					where := fmt.Sprintf("L=%d n=%d %s depth %d", L, n, name, depth)
					want := eachPairSnapshot(s)
					got, err := MarshalStore(s)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: MarshalStore differs from the EachPair encoding", where)
					}
					if o, ok := s.(*Overlay); ok && !Equal(o.Compact(), s) {
						t.Fatalf("%s: Compact differs from the overlay", where)
					}
					dsts := map[string]MutableStore{
						"packed":  NewStore(n, L, KindPacked),
						"overlay": NewOverlay(NewStore(n, L, kind)),
						"foreign": foreignMutable{NewStore(n, L, kind)},
					}
					if kind == KindCompact {
						dsts["compact"] = NewStore(n, L, KindCompact)
					}
					for dname, dst := range dsts {
						Copy(dst, s)
						if !Equal(dst, s) {
							t.Fatalf("%s: Copy into %s differs", where, dname)
						}
					}
				}
			}
			paged.Close()
		}
	}
}

// TestCopyOverlayAliasing: copying an overlay onto itself, or onto an
// overlay its chain stacks on, leaves the destination equal to the
// source.
func TestCopyOverlayAliasing(t *testing.T) {
	g := randomGraph(40, 0.1, 3)
	rng := rand.New(rand.NewSource(3))
	base := build(g, 2)
	lower := NewOverlay(base)
	scribble(lower, base, rng)
	upper := NewOverlay(lower)
	scribble(upper, base, rng)

	want := eachPairSnapshot(lower)
	Copy(lower, lower)
	if !bytes.Equal(eachPairSnapshot(lower), want) {
		t.Fatal("Copy(o, o) changed the overlay")
	}
	want = eachPairSnapshot(upper)
	Copy(lower, upper)
	if !bytes.Equal(eachPairSnapshot(lower), want) {
		t.Fatal("Copy onto the overlay below the source differs from the source")
	}
}

// TestCopyFileBackedCellRules: the flat copy out of a paged snapshot
// applies Set's rules to every cell — a cell above Far() is
// clamped, a cell below 1 panics naming its pair — directly and under
// an overlay, for both payload kinds.
func TestCopyFileBackedCellRules(t *testing.T) {
	const n = 30
	g := randomGraph(n, 0.1, 5)
	i, j := 7, 19 // a pair in the middle of the triangle
	for _, L := range []int{2, MaxCompactL + 1} {
		kind := KindFor(L)
		data, err := MarshalStore(build(g, L))
		if err != nil {
			t.Fatal(err)
		}
		idx := i*(2*n-i-1)/2 + (j - i - 1)
		poke := func(v int32) string {
			raw := bytes.Clone(data)
			if kind == KindCompact {
				raw[storeHeaderLen+idx] = byte(v)
			} else {
				binary.LittleEndian.PutUint32(raw[storeHeaderLen+4*idx:], uint32(v))
			}
			path := filepath.Join(t.TempDir(), "s.store")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		open := func(path string) map[string]Store {
			p, err := OpenPagedStore(path, NewPageCache(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return map[string]Store{"paged": p}
		}

		for name, s := range open(poke(int32(L + 9))) {
			dst := NewStore(n, L, kind)
			Copy(dst, s)
			if got := dst.Get(i, j); got != L+1 {
				t.Errorf("L=%d %s: cell above Far copied as %d, want %d", L, name, got, L+1)
			}
			if got := NewOverlay(s).Compact().Get(i, j); got != L+1 {
				t.Errorf("L=%d %s: overlay Compact kept %d, want %d", L, name, got, L+1)
			}
		}

		bad := []int32{0}
		if kind == KindPacked {
			bad = append(bad, -3)
		}
		for _, v := range bad {
			for name, s := range open(poke(v)) {
				for how, f := range map[string]func(){
					"Copy":    func() { Copy(NewStore(n, L, kind), s) },
					"Compact": func() { NewOverlay(s).Compact() },
					"Marshal": func() { MarshalStore(NewOverlay(s)) },
					"Compact with another cell dirty": func() {
						o := NewOverlay(s)
						o.Set(i, j+1, 1)
						o.Compact()
					},
				} {
					func() {
						defer func() {
							msg, _ := recover().(string)
							if want := fmt.Sprintf("(%d, %d)", i, j); !strings.Contains(msg, want) {
								t.Errorf("L=%d %s %s of cell %d: panic %q, want one naming %s", L, name, how, v, msg, want)
							}
						}()
						f()
					}()
				}
			}
		}
	}
}

// TestCopyFileBackedMaskedCell: a corrupt file cell that an overlay
// layer overrides is masked, as Overlay.EachPair masks it — Compact,
// MarshalStore and Copy take the override and do not panic — while a
// corrupt cell the chain leaves in place still panics.
func TestCopyFileBackedMaskedCell(t *testing.T) {
	const n = 30
	g := randomGraph(n, 0.1, 5)
	i, j := 7, 19
	for _, L := range []int{2, MaxCompactL + 1} {
		kind := KindFor(L)
		data, err := MarshalStore(build(g, L))
		if err != nil {
			t.Fatal(err)
		}
		raw := bytes.Clone(data)
		for _, p := range [][2]int{{i, j}, {i, j + 1}} {
			idx := p[0]*(2*n-p[0]-1)/2 + (p[1] - p[0] - 1)
			if kind == KindCompact {
				raw[storeHeaderLen+idx] = 0
			} else {
				binary.LittleEndian.PutUint32(raw[storeHeaderLen+4*idx:], uint32(0xfffffffd))
			}
		}
		path := filepath.Join(t.TempDir(), "s.store")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := OpenPagedStore(path, NewPageCache(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]Store{"paged": p} {
			lower := NewOverlay(s)
			lower.Set(i, j, 1)
			upper := NewOverlay(lower)
			upper.Set(i, j+1, L+1)
			where := fmt.Sprintf("L=%d %s", L, name)
			if got := upper.Compact(); got.Get(i, j) != 1 || got.Get(i, j+1) != L+1 {
				t.Errorf("%s: Compact gave (%d, %d), want the overrides (1, %d)", where, got.Get(i, j), got.Get(i, j+1), L+1)
			}
			got, err := MarshalStore(upper)
			if err != nil || !bytes.Equal(got, eachPairSnapshot(upper)) {
				t.Errorf("%s: MarshalStore differs from the EachPair encoding (err %v)", where, err)
			}
			dst := NewStore(n, L, kind)
			Copy(dst, upper)
			if !Equal(dst, upper) {
				t.Errorf("%s: Copy differs from the masked chain", where)
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("(%d, %d)", i, j+1); !strings.Contains(msg, want) {
						t.Errorf("%s: unmasked corrupt cell: panic %q, want one naming %s", where, msg, want)
					}
				}()
				lower.Compact()
			}()
		}
		p.Close()
	}
}

// TestCopyClosedPagedStorePanics: a paged store's flat copy honours
// the read-after-Close panic instead of leaving the destination all
// Far.
func TestCopyClosedPagedStorePanics(t *testing.T) {
	_, ps, _ := pagedFixture(t, 20, 0.2, 2, 2, KindCompact, pageSize)
	ps.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Copy from a closed paged store did not panic")
		}
	}()
	Copy(NewStore(20, 2, KindCompact), ps)
}
