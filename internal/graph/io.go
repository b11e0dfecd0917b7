package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteEdgeList encodes g in the SNAP-style whitespace-separated edge-list
// format used by the paper's datasets: one "u v" pair per line, canonical
// order, preceded by a comment header with vertex and edge counts.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList decodes a whitespace-separated edge list. Lines beginning
// with '#' or '%' are comments. Vertex IDs may be sparse and arbitrary;
// they are densified in ascending order of original ID, so a graph whose
// IDs are already dense integers 0..n-1 keeps its labels across a
// write/read round trip no matter how its edges are ordered. Duplicate
// edges (including reversed duplicates) are skipped, matching the
// simple-graph model. A self-loop line is skipped whole: it names no
// vertex, so an ID that appears only on self-loop lines is not in the
// graph. It returns the graph and the original ID of each dense vertex.
//
// A "# Nodes: <n> ..." header comment (the format WriteEdgeList emits)
// declares the vertex count; when it exceeds the number of distinct
// endpoint IDs, the remainder become isolated vertices at the highest
// indices. Every vertex below them has an edge, and that is the only
// shape the format can carry: a read → write → read round trip
// reproduces the graph, isolated vertices included (they count toward
// the |T| denominators of the opacity model).
func ReadEdgeList(r io.Reader) (*Graph, []int, error) {
	type rawEdge struct{ u, v int }
	var (
		edges  []rawEdge
		ids    []int
		index  = make(map[int]int)
		lookup = func(raw int) int {
			if i, ok := index[raw]; ok {
				return i
			}
			i := len(ids)
			index[raw] = i
			ids = append(ids, raw)
			return i
		}
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	declaredNodes := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			if n, ok := parseNodesHeader(line); ok {
				declaredNodes = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: need two vertex IDs, got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[1], err)
		}
		if u == v {
			continue
		}
		edges = append(edges, rawEdge{lookup(u), lookup(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if declaredNodes > math.MaxInt32 {
		return nil, nil, fmt.Errorf("graph: header declares %d vertices, beyond the int32 index space", declaredNodes)
	}
	// Relabel so dense indices follow ascending original IDs; header-
	// declared isolated vertices take the highest indices.
	perm := make([]int, len(ids)) // perm[oldDense] = newDense
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	rank := make(map[int]int, len(sorted))
	for i, id := range sorted {
		rank[id] = i
	}
	for old, id := range ids {
		perm[old] = rank[id]
	}
	n := len(sorted)
	for n < declaredNodes {
		sorted = append(sorted, -1) // isolated vertex with no original ID
		n++
	}
	relabeled := make([]Edge, len(edges))
	for i, e := range edges {
		relabeled[i] = Edge{U: perm[e.u], V: perm[e.v]}
	}
	g, _ := build(n, relabeled) // silently drops duplicates
	return g, sorted, nil
}

// parseNodesHeader extracts n from a "# Nodes: <n> ..." comment line.
func parseNodesHeader(line string) (int, bool) {
	fields := strings.Fields(line)
	for i := 0; i+1 < len(fields); i++ {
		if strings.EqualFold(strings.TrimSuffix(fields[i], ":"), "nodes") ||
			strings.EqualFold(fields[i], "#nodes:") {
			n, err := strconv.Atoi(fields[i+1])
			if err == nil && n >= 0 {
				return n, true
			}
		}
	}
	return 0, false
}
