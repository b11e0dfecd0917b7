package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := randomGraph(20, 0.2, 11)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, ids, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Isolated vertices are not representable in an edge list, so compare
	// after mapping through ids.
	if back.M() != g.M() {
		t.Fatalf("edge count %d, want %d", back.M(), g.M())
	}
	back.EachEdge(func(u, v int) {
		if !g.HasEdge(ids[u], ids[v]) {
			t.Errorf("read edge %d-%d missing in original as %d-%d", u, v, ids[u], ids[v])
		}
	})
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# header\n% other comment\n\n0 1\n1\t2\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	in := "1000 7\n7 42\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	if ids[0] != 7 || ids[1] != 42 || ids[2] != 1000 {
		t.Fatalf("ids = %v, want ascending [7 42 1000]", ids)
	}
	// Ascending relabel: original 7 -> dense 0, 42 -> 1, 1000 -> 2.
	if !g.HasEdge(0, 2) || !g.HasEdge(0, 1) {
		t.Fatalf("edges not relabeled by ascending ID: %v", g.Edges())
	}
}

func TestReadEdgeListSkipsLoopsAndDuplicates(t *testing.T) {
	in := "0 1\n1 0\n2 2\n0 1\n"
	g, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("n=%d m=%d, want 2, 1 (duplicates and loops skipped, and the loop's vertex with them)", g.N(), g.M())
	}
	// A vertex named only by a self-loop would be isolated at a low
	// index, which the written format cannot carry; dropping it keeps
	// the round trip exact.
	g, ids, err := ReadEdgeList(strings.NewReader("\n\n\n\n\n0 0\n1 2"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || !g.HasEdge(0, 1) || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("n=%d edges=%v ids=%v, want n=2 edge {0,1} ids [1 2]", g.N(), g.Edges(), ids)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatalf("round trip: n=%d edges=%v, want n=%d edges=%v", back.N(), back.Edges(), g.N(), g.Edges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "# Nodes: 2147483648\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestReadEdgeListNodesHeaderPreservesIsolated(t *testing.T) {
	in := "# Nodes: 5 Edges: 2\n0 1\n1 2\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5 (two isolated vertices from the header)", g.N())
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if len(ids) != 5 || ids[3] != -1 || ids[4] != -1 {
		t.Fatalf("ids = %v, want padded -1 entries", ids)
	}
	// Labeled vertices keep ascending order ahead of the padding.
	if ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("ids = %v, want [0 1 2 -1 -1]", ids)
	}
	// A graph with isolated vertices must survive a full round trip.
	h := New(4)
	h.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.M() != 1 {
		t.Fatalf("round trip: n=%d m=%d, want 4, 1", back.N(), back.M())
	}
}

func TestParseNodesHeader(t *testing.T) {
	cases := []struct {
		line string
		n    int
		ok   bool
	}{
		{"# Nodes: 7 Edges: 3", 7, true},
		{"# nodes: 12", 12, true},
		{"# Edges: 3", 0, false},
		{"# Nodes: x", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		n, ok := parseNodesHeader(c.line)
		if n != c.n || ok != c.ok {
			t.Errorf("parseNodesHeader(%q) = %d, %v; want %d, %v", c.line, n, ok, c.n, c.ok)
		}
	}
}
