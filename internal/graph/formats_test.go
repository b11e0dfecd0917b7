package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func demoGraph() *Graph {
	g := New(5) // vertex 4 isolated
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3)
	return g
}

func TestGraphMLRoundTrip(t *testing.T) {
	g := demoGraph()
	var buf bytes.Buffer
	if err := WriteGraphML(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", g, back)
	}
}

func TestGraphMLRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		var buf bytes.Buffer
		if err := WriteGraphML(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGraphML(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(g) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestGraphMLNumericIDOrdering(t *testing.T) {
	// n10 must sort after n2 (numeric, not lexicographic).
	doc := `<graphml><graph edgedefault="undirected">
	<node id="n10"/><node id="n2"/><node id="n1"/>
	<edge source="n1" target="n10"/>
	</graph></graphml>`
	g, err := ReadGraphML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted IDs: n1, n2, n10 -> dense 0, 1, 2; the edge is {0, 2}.
	if !g.HasEdge(0, 2) || g.M() != 1 {
		t.Fatalf("edges = %v", g.Edges())
	}
}

func TestGraphMLErrors(t *testing.T) {
	cases := map[string]string{
		"directed":  `<graphml><graph edgedefault="directed"></graph></graphml>`,
		"dup node":  `<graphml><graph edgedefault="undirected"><node id="a"/><node id="a"/></graph></graphml>`,
		"bad edge":  `<graphml><graph edgedefault="undirected"><node id="a"/><edge source="a" target="b"/></graph></graphml>`,
		"malformed": `<graphml><graph>`,
	}
	for name, doc := range cases {
		if _, err := ReadGraphML(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDOT(&buf, demoGraph()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"graph G {", "0 -- 1;", "4;"} {
		if !strings.Contains(s, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "1 -- 0") {
		t.Fatal("DOT emitted a reversed duplicate edge")
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	g := demoGraph()
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", g, back)
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	for name, in := range map[string]string{
		"no colon":     "0 1 2\n",
		"bad vertex":   "x: 1\n",
		"bad neighbor": "0: y\n",
		"negative":     "-1: 0\n",
		// One line, so n = 1 and the id is out of range; sizing the
		// graph from the largest id would ask for 10^9+1 vertices.
		"huge id":           "0:0000000001000000000",
		"vertex past n":     "0: 1\n2: 0\n",
		"neighbor past n":   "0: 1\n1: 0 2\n",
		"negative neighbor": "0: -1\n",
		"duplicate vertex":  "0: 1\n0: 1\n",
	} {
		if _, err := ReadAdjacency(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Comments and blank lines are fine.
	g, err := ReadAdjacency(strings.NewReader("# c\n\n0: 1\n1: 0\n"))
	if err != nil || g.M() != 1 {
		t.Fatalf("comment handling: %v %v", g, err)
	}
}
