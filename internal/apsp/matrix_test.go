package apsp

import (
	"testing"
)

// kinds enumerates every store backing; store behavior tests run over
// all of them so the two implementations stay interchangeable.
var kinds = []Kind{KindCompact, KindPacked}

func forEachKind(t *testing.T, fn func(t *testing.T, k Kind)) {
	t.Helper()
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) { fn(t, k) })
	}
}

func TestStoreInitFar(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(4, 2, k)
		if m.N() != 4 || m.L() != 2 || m.Far() != 3 {
			t.Fatalf("dims: n=%d L=%d far=%d", m.N(), m.L(), m.Far())
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if m.Get(i, j) != 3 {
					t.Fatalf("entry (%d,%d) = %d, want Far=3", i, j, m.Get(i, j))
				}
			}
		}
	})
}

func TestStoreSetGetSymmetric(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(5, 3, k)
		m.Set(3, 1, 2)
		if m.Get(1, 3) != 2 || m.Get(3, 1) != 2 {
			t.Fatal("Set/Get not symmetric")
		}
		m.Set(0, 4, 99) // clamps to Far
		if m.Get(0, 4) != m.Far() {
			t.Fatalf("overlarge distance not clamped: %d", m.Get(0, 4))
		}
	})
}

func TestStoreDiagonalPanics(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(3, 1, k)
		defer func() {
			if recover() == nil {
				t.Fatal("Get on diagonal did not panic")
			}
		}()
		m.Get(1, 1)
	})
}

func TestStoreSetZeroPanics(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(3, 1, k)
		defer func() {
			if recover() == nil {
				t.Fatal("Set with d=0 did not panic")
			}
		}()
		m.Set(0, 1, 0)
	})
}

func TestStoreCloneEqualCopy(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(4, 2, k)
		m.Set(0, 1, 1)
		m.Set(1, 2, 2)
		c := m.Clone().(MutableStore)
		if KindOf(c) != k {
			t.Fatalf("Clone changed backing: %v -> %v", k, KindOf(c))
		}
		if !Equal(m, c) {
			t.Fatal("clone unequal")
		}
		c.Set(2, 3, 1)
		if Equal(m, c) {
			t.Fatal("mutating clone affected Equal")
		}
		Copy(c, m)
		if !Equal(m, c) {
			t.Fatal("Copy did not restore equality")
		}
		if Equal(m, NewStore(4, 3, k)) {
			t.Fatal("different caps reported equal")
		}
		if Equal(m, NewStore(5, 2, k)) {
			t.Fatal("different sizes reported equal")
		}
	})
}

// countWithin is the number of pairs within L, counted as one class.
func countWithin(s Store) int64 {
	cnt := make([]int64, 1)
	CountWithinByClass(s, make([]int32, s.N()), 1, cnt)
	return cnt[0]
}

func TestStoreCountWithinAndHistogram(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(4, 2, k) // 6 pairs
		m.Set(0, 1, 1)
		m.Set(0, 2, 2)
		m.Set(1, 2, 1)
		if got := countWithin(m); got != 3 {
			t.Fatalf("countWithin = %d, want 3", got)
		}
		h := make([]int, m.Far()+1)
		m.EachPair(func(_, _, d int) { h[d]++ })
		if h[1] != 2 || h[2] != 1 || h[3] != 3 {
			t.Fatalf("histogram = %v", h)
		}
	})
}

func TestStoreEachPairOrder(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(3, 1, k)
		var pairs [][2]int
		m.EachPair(func(i, j, d int) { pairs = append(pairs, [2]int{i, j}) })
		want := [][2]int{{0, 1}, {0, 2}, {1, 2}}
		if len(pairs) != len(want) {
			t.Fatalf("EachPair visited %v", pairs)
		}
		for i := range want {
			if pairs[i] != want[i] {
				t.Fatalf("EachPair order %v, want %v", pairs, want)
			}
		}
	})
}

func TestStoreWithin(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		m := NewStore(3, 2, k)
		m.Set(0, 1, 2)
		if m.Get(0, 1) > m.L() {
			t.Fatal("distance 2 with L=2 should be within")
		}
		if m.Get(0, 2) <= m.L() {
			t.Fatal("Far pair reported within")
		}
	})
}
