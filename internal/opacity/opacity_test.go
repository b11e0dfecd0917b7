package opacity

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apsp"
	"repro/internal/fixture"
	"repro/internal/graph"
)

func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestDegreeTypesFigure1Census(t *testing.T) {
	types := NewDegreeTypes(fixture.Figure1Degrees())
	// Degrees present: 1, 2, 3, 4 with NV = 1, 2, 1, 3.
	wantTotals := map[string]int{
		"P{1,1}": 0, "P{1,2}": 2, "P{1,3}": 1, "P{1,4}": 3,
		"P{2,2}": 1, "P{2,3}": 2, "P{2,4}": 6,
		"P{3,3}": 0, "P{3,4}": 3,
		"P{4,4}": 3,
	}
	if types.NumTypes() != len(wantTotals) {
		t.Fatalf("NumTypes = %d, want %d", types.NumTypes(), len(wantTotals))
	}
	got := map[string]int{}
	for id := 0; id < types.NumTypes(); id++ {
		got[types.Label(id)] = types.Total(id)
	}
	for label, total := range wantTotals {
		if got[label] != total {
			t.Errorf("total of %s = %d, want %d", label, got[label], total)
		}
	}
}

func TestDegreeTypesTypeOfSymmetric(t *testing.T) {
	types := NewDegreeTypes(fixture.Figure1Degrees())
	for u := 0; u < 7; u++ {
		for v := 0; v < 7; v++ {
			if u != v && types.TypeOf(u, v) != types.TypeOf(v, u) {
				t.Fatalf("TypeOf(%d,%d) != TypeOf(%d,%d)", u, v, v, u)
			}
		}
	}
}

func TestDegreePairRoundTrip(t *testing.T) {
	types := NewDegreeTypes(fixture.Figure1Degrees())
	for id := 0; id < types.NumTypes(); id++ {
		g, h := types.DegreePair(id)
		if want := typeLabel(g, h); types.Label(id) != want {
			t.Errorf("id %d: DegreePair gives (%d,%d) but label is %s", id, g, h, types.Label(id))
		}
	}
}

func typeLabel(g, h int) string {
	return "P{" + itoa(g) + "," + itoa(h) + "}"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestTrackerFigure1LMatrix(t *testing.T) {
	g := fixture.Figure1()
	types := NewDegreeTypes(fixture.Figure1Degrees())
	tr := NewTracker(types, apsp.Build(g, 1, apsp.BuildOptions{}))
	want := fixture.Figure5LMatrix()
	for id := 0; id < types.NumTypes(); id++ {
		dg, dh := types.DegreePair(id)
		if got, wanted := tr.Count(id), want[[2]int{dg, dh}]; got != wanted {
			t.Errorf("L-count of P{%d,%d} = %d, want %d (paper Figure 5a)", dg, dh, got, wanted)
		}
	}
}

func TestTrackerFigure1OpacityMatrix(t *testing.T) {
	g := fixture.Figure1()
	types := NewDegreeTypes(fixture.Figure1Degrees())
	tr := NewTracker(types, apsp.Build(g, 1, apsp.BuildOptions{}))
	want := fixture.Figure5Opacity()
	for id := 0; id < types.NumTypes(); id++ {
		dg, dh := types.DegreePair(id)
		wanted, interesting := want[[2]int{dg, dh}]
		got := tr.OpacityOf(id)
		if interesting {
			if math.Abs(got-wanted) > 1e-12 {
				t.Errorf("opacity of P{%d,%d} = %v, want %v (paper Figure 5c)", dg, dh, got, wanted)
			}
		}
	}
	ev := tr.Evaluate()
	if ev.MaxLO != 1.0 {
		t.Errorf("maxLO = %v, want 1 (paper Section 5.1.1)", ev.MaxLO)
	}
	// Types at opacity 1 for L=1: P{1,3} (edge 6-7) and P{4,4} (triangle
	// 2,3,5 fully connected).
	if ev.Population != 2 {
		t.Errorf("N(maxLO) = %d, want 2", ev.Population)
	}
}

func TestMaxLOFigure1AcrossL(t *testing.T) {
	g := fixture.Figure1()
	// With L >= diameter (3), every connected pair counts; all pairs are
	// connected, so every nonempty type reaches opacity 1.
	if got := MaxLO(g, nil, 3); got != 1 {
		t.Fatalf("MaxLO(L=3) = %v, want 1", got)
	}
	if got := MaxLO(g, nil, 1); got != 1 {
		t.Fatalf("MaxLO(L=1) = %v, want 1", got)
	}
}

func TestSatisfies(t *testing.T) {
	g := fixture.Figure1()
	if Satisfies(g, nil, 1, 0.5) {
		t.Fatal("Figure 1 graph should not satisfy theta=0.5 at L=1")
	}
	if !Satisfies(g, nil, 1, 1.0) {
		t.Fatal("any graph satisfies theta=1")
	}
	empty := graph.New(5)
	if !Satisfies(empty, g.Degrees()[:5], 1, 0.0) {
		t.Fatal("edgeless graph must satisfy theta=0")
	}
}

func TestTrackerUpdateCrossings(t *testing.T) {
	g := fixture.Figure1()
	types := NewDegreeTypes(fixture.Figure1Degrees())
	tr := NewTracker(types, apsp.Build(g, 1, apsp.BuildOptions{}))
	id := types.TypeOf(5, 6) // degrees 3 and 1: the edge 6-7 in paper terms
	before := tr.Count(id)
	tr.Update(5, 6, 1, 2) // leaves the <=L set
	if tr.Count(id) != before-1 {
		t.Fatal("Update did not decrement on leaving")
	}
	tr.Update(5, 6, 2, 1) // re-enters
	if tr.Count(id) != before {
		t.Fatal("Update did not increment on entering")
	}
	tr.Update(5, 6, 2, 3) // no crossing
	if tr.Count(id) != before {
		t.Fatal("Update changed count without a crossing")
	}
}

func TestEvaluationOrdering(t *testing.T) {
	a := Evaluation{MaxLO: 0.5, Population: 3}
	b := Evaluation{MaxLO: 0.6, Population: 1}
	c := Evaluation{MaxLO: 0.5, Population: 2}
	if !a.Better(b) {
		t.Fatal("lower maxLO must win")
	}
	if !c.Better(a) {
		t.Fatal("equal maxLO, lower population must win")
	}
	if !a.Ties(Evaluation{MaxLO: 0.5, Population: 3}) {
		t.Fatal("identical evaluations must tie")
	}
	if a.Better(a) {
		t.Fatal("evaluation strictly better than itself")
	}
}

func TestEvaluateWithMatchesCommit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		if g.M() == 0 {
			return true
		}
		types := NewDegreeTypes(g.Degrees())
		m := apsp.Build(g, L, apsp.BuildOptions{})
		tr := NewTracker(types, m)
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		var changes []PairChange
		apsp.RemovalDelta(g, m, e.U, e.V, nil, func(x, y, oldD, newD int) {
			changes = append(changes, PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
		})
		trial := tr.EvaluateWith(changes, nil)
		// Commit for real and compare.
		for _, c := range changes {
			tr.Update(c.X, c.Y, c.OldD, c.NewD)
		}
		return trial == tr.Evaluate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOpacityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(12)
		L := 1 + rng.Intn(4)
		g := randomGraph(n, 0.3, seed)
		types := NewDegreeTypes(g.Degrees())
		tr := NewTracker(types, apsp.Build(g, L, apsp.BuildOptions{}))
		for id := 0; id < types.NumTypes(); id++ {
			lo := tr.OpacityOf(id)
			if lo < 0 || lo > 1 {
				return false
			}
		}
		ev := tr.Evaluate()
		return ev.MaxLO >= 0 && ev.MaxLO <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMaxLOMonotoneInL(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(12, 0.2, seed)
		prev := 0.0
		for L := 1; L <= 4; L++ {
			lo := MaxLO(g, nil, L)
			if lo < prev-1e-12 {
				return false // growing L can only include more pairs per type
			}
			if lo > prev {
				prev = lo
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFuncTypes(t *testing.T) {
	// Two types: pairs (0,x) are type 0; everything else type 1.
	fn := func(u, v int) int {
		if u == 0 || v == 0 {
			return 0
		}
		return 1
	}
	types := NewFuncTypes(fn, []int{3, 3}, nil)
	if types.NumTypes() != 2 || types.Total(0) != 3 || types.Label(1) != "T1" {
		t.Fatal("FuncTypes accessors wrong")
	}
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	tr := NewTracker(types, apsp.Build(g, 1, apsp.BuildOptions{}))
	if tr.Count(0) != 1 || tr.Count(1) != 1 {
		t.Fatalf("counts = %d, %d, want 1, 1", tr.Count(0), tr.Count(1))
	}
}

func TestFuncTypesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched labels did not panic")
		}
	}()
	NewFuncTypes(func(u, v int) int { return 0 }, []int{1}, []string{"a", "b"})
}

func TestReportFigure1(t *testing.T) {
	g := fixture.Figure1()
	rep := NewReport(g, nil, 1)
	if rep.MaxLO != 1 || rep.N != 2 {
		t.Fatalf("report maxLO=%v N=%d, want 1, 2", rep.MaxLO, rep.N)
	}
	s := rep.String()
	for _, want := range []string{"P{3,4}", "P{4,4}", "maxLO=1.0000"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestReportSkipsEmptyTypes(t *testing.T) {
	g := fixture.Figure1()
	rep := NewReport(g, nil, 1)
	for _, tr := range rep.ByType {
		if tr.Total == 0 {
			t.Errorf("empty type %s included in report", tr.Label)
		}
	}
}

func TestTrackerAccessors(t *testing.T) {
	g := fixture.Figure1()
	degrees := fixture.Figure1Degrees()
	types := NewDegreeTypes(degrees)
	m := apsp.Build(g, 1, apsp.BuildOptions{})
	tr := NewTracker(types, m)
	if tr.L() != 1 {
		t.Fatalf("L() = %d", tr.L())
	}
	if tr.Types() != TypeAssigner(types) {
		t.Fatal("Types() did not return the assigner")
	}
	counts := tr.Counts()
	if len(counts) != types.NumTypes() {
		t.Fatalf("Counts() length %d, want %d", len(counts), types.NumTypes())
	}
	// Counts returns a copy: mutating it must not affect the tracker.
	id := types.TypeOf(1, 2) // a {4,4} pair
	before := tr.Count(id)
	counts[id] = 999
	if tr.Count(id) != before {
		t.Fatal("Counts() aliases tracker state")
	}
	// An Update and its reverse restore a snapshot, index included.
	snap := tr.Counts()
	ev := tr.Evaluate()
	tr.Update(1, 2, 1, 2) // pretend the pair left the <=L set
	if tr.Count(id) == before {
		t.Fatal("Update had no effect")
	}
	tr.Update(1, 2, 2, 1)
	if tr.Count(id) != before || !slices.Equal(tr.Counts(), snap) {
		t.Fatal("reverse Update did not restore the counts")
	}
	if tr.Evaluate() != ev {
		t.Fatalf("reverse Update left Evaluate at %+v, want %+v", tr.Evaluate(), ev)
	}
}
