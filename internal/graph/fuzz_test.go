package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the edge-list parser never panics and that
// every accepted input round-trips: parse, write, re-parse must
// reproduce the same graph.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# Nodes: 4 Edges: 2\n0 1\n2 3\n")
	f.Add("# comment\n\n5 5\n5 6\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("0 1 extra\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, _, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, _, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if !g.Equal(g2) {
			t.Fatalf("round-trip changed the graph: %d/%d -> %d/%d edges",
				g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// FuzzReadGraphML checks the GraphML reader never panics and that
// accepted documents round-trip through the writer.
func FuzzReadGraphML(f *testing.F) {
	var seed bytes.Buffer
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if err := WriteGraphML(&seed, g); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("<graphml></graphml>")
	f.Add("<graphml><graph><node id='n0'/><edge source='n0' target='n0'/></graph></graphml>")
	f.Add("not xml at all")
	f.Add("<graphml><graph><edge source='n0' target='n1'/></graph></graphml>")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadGraphML(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteGraphML(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadGraphML(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if g.N() != g2.N() || g.M() != g2.M() {
			t.Fatalf("round-trip changed size: %d/%d -> %d/%d", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// FuzzReadAdjacency covers the adjacency-list format the same way.
func FuzzReadAdjacency(f *testing.F) {
	f.Add("0: 1 2\n1: 0\n2: 0\n")
	f.Add("0:\n")
	f.Add(": 1\n")
	f.Add("0: 0\n")
	f.Add("0:0000000001000000000")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadAdjacency(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}
