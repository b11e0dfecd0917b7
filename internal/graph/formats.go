package graph

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file provides the interchange formats beyond the SNAP edge list:
// GraphML (the format graph tools like Gephi and NetworkX consume), DOT
// (Graphviz visualization), and a plain adjacency-list encoding. All
// writers emit vertices in ascending order so output is deterministic.

// WriteGraphML encodes g as a minimal undirected GraphML document. Every
// vertex is written as a node (so isolated vertices survive), each edge
// once in canonical order.
func WriteGraphML(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, xml.Header+`<graphml xmlns="http://graphml.graphdrawing.org/xmlns">`)
	fmt.Fprintln(bw, `  <graph id="G" edgedefault="undirected">`)
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "    <node id=\"n%d\"/>\n", v)
	}
	for i, e := range g.Edges() {
		fmt.Fprintf(bw, "    <edge id=\"e%d\" source=\"n%d\" target=\"n%d\"/>\n", i, e.U, e.V)
	}
	fmt.Fprintln(bw, "  </graph>")
	fmt.Fprintln(bw, "</graphml>")
	return bw.Flush()
}

// graphMLDoc mirrors the subset of GraphML that ReadGraphML accepts.
type graphMLDoc struct {
	Graph struct {
		EdgeDefault string `xml:"edgedefault,attr"`
		Nodes       []struct {
			ID string `xml:"id,attr"`
		} `xml:"node"`
		Edges []struct {
			Source string `xml:"source,attr"`
			Target string `xml:"target,attr"`
		} `xml:"edge"`
	} `xml:"graph"`
}

// ReadGraphML decodes an undirected GraphML document produced by
// WriteGraphML or by compatible tools. Node IDs may be arbitrary
// strings; vertices are densified in ascending order of ID (numeric
// suffixes compare numerically when all IDs share the "n<digits>"
// shape, otherwise lexicographically). Directed documents are rejected.
func ReadGraphML(r io.Reader) (*Graph, error) {
	var doc graphMLDoc
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: parsing GraphML: %w", err)
	}
	if d := doc.Graph.EdgeDefault; d != "" && d != "undirected" {
		return nil, fmt.Errorf("graph: GraphML edgedefault %q not supported (want undirected)", d)
	}
	ids := make([]string, 0, len(doc.Graph.Nodes))
	for _, node := range doc.Graph.Nodes {
		ids = append(ids, node.ID)
	}
	sortGraphMLIDs(ids)
	index := make(map[string]int, len(ids))
	for i, id := range ids {
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("graph: duplicate GraphML node id %q", id)
		}
		index[id] = i
	}
	edges := make([]Edge, 0, len(doc.Graph.Edges))
	for _, e := range doc.Graph.Edges {
		u, ok := index[e.Source]
		if !ok {
			return nil, fmt.Errorf("graph: edge references unknown node %q", e.Source)
		}
		v, ok := index[e.Target]
		if !ok {
			return nil, fmt.Errorf("graph: edge references unknown node %q", e.Target)
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	g, _ := build(len(ids), edges) // drops self-loops and duplicates
	return g, nil
}

// sortGraphMLIDs orders node IDs numerically when they all look like
// "n<digits>" (WriteGraphML's shape) and lexicographically otherwise.
func sortGraphMLIDs(ids []string) {
	numeric := true
	keys := make([]int, len(ids))
	for i, id := range ids {
		n, err := strconv.Atoi(strings.TrimPrefix(id, "n"))
		if err != nil || !strings.HasPrefix(id, "n") {
			numeric = false
			break
		}
		keys[i] = n
	}
	if numeric {
		// Insertion sort by key; ID lists are small relative to edges.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
				keys[j-1], keys[j] = keys[j], keys[j-1]
				ids[j-1], ids[j] = ids[j], ids[j-1]
			}
		}
		return
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

// WriteDOT encodes g for Graphviz: an undirected graph with numeric
// vertex names, one edge per line in canonical order.
func WriteDOT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph G {")
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			fmt.Fprintf(bw, "  %d;\n", v)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -- %d;\n", e.U, e.V)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteAdjacency encodes g one vertex per line: "v: n1 n2 ...", with
// every vertex present (isolated vertices get an empty neighbor list).
func WriteAdjacency(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "%d:", v)
		for _, u := range g.Neighbors(v) {
			fmt.Fprintf(bw, " %d", u)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadAdjacency decodes the WriteAdjacency format. Vertex count is the
// number of lines; every line names a distinct vertex in [0, n) and
// neighbor references must be in range, so the graph's size is bounded
// by the input's.
func ReadAdjacency(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	type row struct {
		v         int
		neighbors []int
	}
	var rows []row
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		head, rest, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("graph: adjacency line %d: missing ':'", lineNo)
		}
		v, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil {
			return nil, fmt.Errorf("graph: adjacency line %d: bad vertex %q", lineNo, head)
		}
		var ns []int
		for _, f := range strings.Fields(rest) {
			u, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("graph: adjacency line %d: bad neighbor %q", lineNo, f)
			}
			ns = append(ns, u)
		}
		rows = append(rows, row{v: v, neighbors: ns})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := len(rows)
	seen := make([]bool, n)
	var edges []Edge
	for _, r := range rows {
		if r.v < 0 || r.v >= n {
			return nil, fmt.Errorf("graph: vertex %d out of range [0, %d)", r.v, n)
		}
		if seen[r.v] {
			return nil, fmt.Errorf("graph: vertex %d listed twice", r.v)
		}
		seen[r.v] = true
		for _, u := range r.neighbors {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("graph: neighbor %d of %d out of range [0, %d)", u, r.v, n)
			}
			edges = append(edges, Edge{U: r.v, V: u})
		}
	}
	g, _ := build(n, edges)
	return g, nil
}
