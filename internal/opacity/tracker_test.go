package opacity

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// scanEvaluate is the linear-scan oracle of the max-opacity index: the
// pre-index Algorithm 1 scan over every type at counts+deltas.
func scanEvaluate(counts, deltas []int, types TypeAssigner) Evaluation {
	maxLO := 0.0
	pop := 0
	for id := range counts {
		total := types.Total(id)
		if total == 0 {
			continue
		}
		c := counts[id]
		if deltas != nil {
			c += deltas[id]
		}
		lo := float64(c) / float64(total)
		switch {
		case lo > maxLO:
			maxLO = lo
			pop = 1
		case lo == maxLO:
			pop++
		}
	}
	return Evaluation{MaxLO: maxLO, Population: pop}
}

// scanDeltas folds a change list into per-type deltas the way the
// pre-index EvaluateWith did.
func scanDeltas(changes []PairChange, types TypeAssigner, l int) []int {
	deltas := make([]int, types.NumTypes())
	for _, c := range changes {
		wasIn, isIn := c.OldD <= l, c.NewD <= l
		if wasIn == isIn {
			continue
		}
		id := types.TypeOf(c.X, c.Y)
		if id < 0 {
			continue
		}
		if isIn {
			deltas[id]++
		} else {
			deltas[id]--
		}
	}
	return deltas
}

func sameEvaluation(a, b Evaluation) bool {
	return math.Float64bits(a.MaxLO) == math.Float64bits(b.MaxLO) && a.Population == b.Population
}

// indexFixture is a tracker over n vertices of an edgeless graph (every
// count starts at zero) whose pairs fall into random types: some
// untyped, some types with Total == 0, and totals drawn from a small
// set so that equal LO values (1/2 == 2/4 == 3/6) abound.
func indexFixture(rng *rand.Rand, n, l int) (*Tracker, *FuncTypes, [][2]int) {
	k := 1 + rng.Intn(12)
	pairType := map[[2]int]int{}
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			id := rng.Intn(k+1) - 1 // -1: untyped
			pairType[[2]int{u, v}] = id
			pairs = append(pairs, [2]int{u, v})
		}
	}
	choices := []int{0, 1, 2, 3, 4, 6, 12}
	totals := make([]int, k)
	for id := range totals {
		totals[id] = choices[rng.Intn(len(choices))]
	}
	fn := func(u, v int) int {
		if u > v {
			u, v = v, u
		}
		return pairType[[2]int{u, v}]
	}
	types := NewFuncTypes(fn, totals, nil)
	return NewTracker(types, apsp.Build(graph.New(n), l, apsp.BuildOptions{})), types, pairs
}

// TestPropertyIndexMatchesScan drives random Update sequences through
// the max-opacity index and compares Evaluate and EvaluateWith bit for
// bit with the linear scan, from the all-zero start through tied and
// Total == 0 types.
func TestPropertyIndexMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, l := 3+rng.Intn(8), 1+rng.Intn(3)
		tr, types, pairs := indexFixture(rng, n, l)
		in := map[[2]int]bool{} // pairs currently counted within L
		deltas := make([]int, types.NumTypes())
		for step := 0; step < 60; step++ {
			if got, want := tr.Evaluate(), scanEvaluate(tr.counts, nil, types); !sameEvaluation(got, want) {
				t.Fatalf("seed %d step %d: Evaluate = %+v, scan = %+v", seed, step, got, want)
			}
			// A random change list, including repeats of one pair,
			// non-crossing changes, and untyped pairs.
			var changes []PairChange
			for j := rng.Intn(8); j > 0; j-- {
				p := pairs[rng.Intn(len(pairs))]
				oldD, newD := l+1, l
				if in[p] {
					oldD, newD = l, l+1
				}
				if rng.Intn(5) == 0 {
					newD = oldD // crosses nothing
				}
				changes = append(changes, PairChange{X: p[0], Y: p[1], OldD: oldD, NewD: newD})
			}
			want := scanEvaluate(tr.counts, scanDeltas(changes, types, l), types)
			if got := tr.EvaluateWith(changes, deltas); !sameEvaluation(got, want) {
				t.Fatalf("seed %d step %d: EvaluateWith = %+v, scan = %+v", seed, step, got, want)
			}
			for id, d := range deltas {
				if d != 0 {
					t.Fatalf("seed %d step %d: EvaluateWith left deltas[%d] = %d", seed, step, id, d)
				}
			}
			// Commit a few random pair flips.
			for j := 1 + rng.Intn(4); j > 0; j-- {
				p := pairs[rng.Intn(len(pairs))]
				if in[p] {
					tr.Update(p[0], p[1], l, l+1)
				} else {
					tr.Update(p[0], p[1], l+1, l)
				}
				in[p] = !in[p]
			}
		}
		// Undo everything: the index must return to the all-zero state.
		for p, on := range in {
			if on {
				tr.Update(p[0], p[1], 1, l+1)
			}
		}
		if got, want := tr.Evaluate(), scanEvaluate(make([]int, types.NumTypes()), nil, types); !sameEvaluation(got, want) {
			t.Fatalf("seed %d: after undo Evaluate = %+v, want %+v", seed, got, want)
		}
	}
}

// TestEvaluateAllTied: every type at the same LO forms one group, and a
// delta that moves one type down leaves the rest as the population.
func TestEvaluateAllTied(t *testing.T) {
	types := NewFuncTypes(func(u, v int) int { return u }, []int{1, 1, 1}, nil)
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	tr := NewTracker(types, apsp.Build(g, 1, apsp.BuildOptions{}))
	if got := tr.Evaluate(); got != (Evaluation{MaxLO: 1, Population: 3}) {
		t.Fatalf("all tied: %+v", got)
	}
	got := tr.EvaluateDeltas([]TypeDelta{{ID: 1, D: -1}})
	if got != (Evaluation{MaxLO: 1, Population: 2}) {
		t.Fatalf("one tied type lowered: %+v", got)
	}
	got = tr.EvaluateDeltas([]TypeDelta{{ID: 0, D: -1}, {ID: 1, D: -1}, {ID: 2, D: -1}})
	if got != (Evaluation{MaxLO: 0, Population: 3}) {
		t.Fatalf("every type lowered to zero: %+v", got)
	}
}

// TestEvaluateNoPairTypes: types with Total == 0 never count, so a
// tracker with only such types evaluates to {0, 0}.
func TestEvaluateNoPairTypes(t *testing.T) {
	types := NewFuncTypes(func(u, v int) int { return 0 }, []int{0}, nil)
	g := graph.New(3)
	g.AddEdge(0, 1)
	tr := NewTracker(types, apsp.Build(g, 1, apsp.BuildOptions{}))
	if got := tr.Evaluate(); got != (Evaluation{}) {
		t.Fatalf("Evaluate = %+v, want zero", got)
	}
	if got := tr.EvaluateDeltas([]TypeDelta{{ID: 0, D: 1}}); got != (Evaluation{}) {
		t.Fatalf("EvaluateDeltas = %+v, want zero", got)
	}
}

// TestAppendTypeDeltasNetsAndDedups: a type that leaves and re-enters
// nets to zero and is dropped; a type touched repeatedly appears once.
func TestAppendTypeDeltasNetsAndDedups(t *testing.T) {
	types := NewFuncTypes(func(u, v int) int { return u }, []int{3, 3}, nil)
	tr := NewTracker(types, apsp.Build(graph.New(4), 1, apsp.BuildOptions{}))
	deltas := make([]int, 2)
	changes := []PairChange{
		{X: 0, Y: 1, OldD: 1, NewD: 2}, // type 0: -1
		{X: 0, Y: 2, OldD: 2, NewD: 1}, // type 0: back to 0
		{X: 0, Y: 3, OldD: 2, NewD: 1}, // type 0: +1
		{X: 1, Y: 2, OldD: 1, NewD: 2}, // type 1: -1
		{X: 1, Y: 3, OldD: 2, NewD: 1}, // type 1: net 0
	}
	got := tr.AppendTypeDeltas(nil, changes, deltas)
	if len(got) != 1 || got[0] != (TypeDelta{ID: 0, D: 1}) {
		t.Fatalf("AppendTypeDeltas = %+v, want [{0 1}]", got)
	}
	if deltas[0] != 0 || deltas[1] != 0 {
		t.Fatalf("deltas left %v", deltas)
	}
}
