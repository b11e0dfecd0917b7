package opacity

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/apsp"
	"repro/internal/graph"
)

func TestLabelTypesCensus(t *testing.T) {
	// 3 "A", 2 "B", 1 "C".
	lt := NewLabelTypes([]string{"A", "A", "B", "C", "B", "A"})
	if lt.NumTypes() != 6 { // 3 labels -> 6 unordered pairs
		t.Fatalf("NumTypes=%d, want 6", lt.NumTypes())
	}
	wantTotals := map[string]int{
		"{A,A}": 3, // C(3,2)
		"{A,B}": 6, // 3*2
		"{A,C}": 3,
		"{B,B}": 1,
		"{B,C}": 2,
		"{C,C}": 0,
	}
	seen := map[string]int{}
	for id := 0; id < lt.NumTypes(); id++ {
		seen[lt.Label(id)] = lt.Total(id)
	}
	for label, want := range wantTotals {
		if seen[label] != want {
			t.Errorf("total[%s]=%d, want %d", label, seen[label], want)
		}
	}
}

func TestLabelTypesTypeOfSymmetric(t *testing.T) {
	lt := NewLabelTypes([]string{"x", "y", "x", "z"})
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if lt.TypeOf(u, v) != lt.TypeOf(v, u) {
				t.Fatalf("TypeOf(%d,%d) != TypeOf(%d,%d)", u, v, v, u)
			}
		}
	}
}

// Property: totals computed from label counts must equal a brute-force
// census over all pairs, and every pair's TypeOf must be in range.
func TestLabelTypesQuickCensusMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw%30)
		k := 1 + int(kRaw%5)
		rng := rand.New(rand.NewSource(seed))
		labels := make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("L%d", rng.Intn(k))
		}
		lt := NewLabelTypes(labels)
		brute := make([]int, lt.NumTypes())
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				id := lt.TypeOf(u, v)
				if id < 0 || id >= lt.NumTypes() {
					return false
				}
				brute[id]++
			}
		}
		for id := 0; id < lt.NumTypes(); id++ {
			if lt.Total(id) != brute[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// LabelTypes plugged into the tracker must agree with a direct
// per-type count over the distance matrix.
func TestLabelTypesWithTracker(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(3, 4), graph.E(4, 5),
	})
	labels := []string{"a", "b", "a", "b", "a", "b"}
	lt := NewLabelTypes(labels)
	m := apsp.Build(g, 2, apsp.BuildOptions{})
	tr := NewTracker(lt, m)
	ev := tr.Evaluate()

	// Brute force: count pairs within 2 per label pair.
	brute := make([]int, lt.NumTypes())
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if m.Get(u, v) <= m.L() {
				brute[lt.TypeOf(u, v)]++
			}
		}
	}
	maxLO := 0.0
	for id := 0; id < lt.NumTypes(); id++ {
		if lt.Total(id) == 0 {
			continue
		}
		if lo := float64(brute[id]) / float64(lt.Total(id)); lo > maxLO {
			maxLO = lo
		}
	}
	if ev.MaxLO != maxLO {
		t.Fatalf("tracker maxLO=%v, brute force %v", ev.MaxLO, maxLO)
	}
}
