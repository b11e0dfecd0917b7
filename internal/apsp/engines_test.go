package apsp

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestClassicFWOnFigure1(t *testing.T) {
	g := fixture.Figure1()
	want := fixture.Figure4aDistances()
	got := ClassicFW(g)
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if got[i][j] != want[i][j] {
				t.Errorf("d(%d,%d) = %d, want %d (paper Figure 4a)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestClassicFWUnreachable(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	d := ClassicFW(g)
	if d[0][2] != -1 || d[2][3] != -1 {
		t.Fatalf("unreachable pairs: d(0,2)=%d d(2,3)=%d, want -1", d[0][2], d[2][3])
	}
	if d[0][0] != 0 {
		t.Fatalf("diagonal = %d, want 0", d[0][0])
	}
}

func TestEnginesAgreeOnFigure1(t *testing.T) {
	g := fixture.Figure1()
	for L := 1; L <= 4; L++ {
		ref := FromClassic(ClassicFW(g), L)
		for name, m := range map[string]Store{
			"Build":     build(g, L),
			"LPrunedFW": LPrunedFW(g, L),
			"PointerFW": PointerFW(g, L),
		} {
			if !Equal(m, ref) {
				t.Errorf("L=%d: %s disagrees with classic FW", L, name)
			}
		}
	}
}

func TestPropertyEnginesAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(16)
		p := 0.05 + rng.Float64()*0.3
		L := 1 + rng.Intn(4)
		g := randomGraph(n, p, seed)
		ref := FromClassic(ClassicFW(g), L)
		return Equal(build(g, L), ref) &&
			Equal(LPrunedFW(g, L), ref) &&
			Equal(PointerFW(g, L), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedAPSPDisconnected(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	m := build(g, 2)
	if m.Get(0, 1) != 1 || m.Get(3, 4) != 1 {
		t.Fatal("edges not at distance 1")
	}
	if m.Get(0, 3) != m.Far() || m.Get(1, 4) != m.Far() {
		t.Fatal("cross-component pairs not Far")
	}
}

func TestLPrunedFWLeavesBeyondLFar(t *testing.T) {
	// Path 0-1-2-3-4: distances up to 4; with L=2 only <=2 are recorded.
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	m := LPrunedFW(g, 2)
	if m.Get(0, 1) != 1 || m.Get(0, 2) != 2 {
		t.Fatal("short distances wrong")
	}
	if m.Get(0, 3) != m.Far() || m.Get(0, 4) != m.Far() {
		t.Fatal("distances beyond L not Far")
	}
}

func TestEnginesL1IsAdjacency(t *testing.T) {
	g := randomGraph(12, 0.3, 5)
	for name, m := range map[string]Store{
		"Build":     build(g, 1),
		"LPrunedFW": LPrunedFW(g, 1),
		"PointerFW": PointerFW(g, 1),
	} {
		ok := true
		m.EachPair(func(i, j, d int) {
			if g.HasEdge(i, j) != (d == 1) {
				ok = false
			}
		})
		if !ok {
			t.Errorf("%s at L=1 is not the adjacency matrix", name)
		}
	}
}
