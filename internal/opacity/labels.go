package opacity

import "fmt"

// LabelTypes assigns every vertex a categorical label (community,
// department, role ...) and types each vertex pair by its unordered
// label pair — the node-labeled setting of Zhou & Pei (ICDE 2008) cast
// into the paper's Definition 1. Compared with a generic classifier
// function, LabelTypes computes type populations in O(n + #labels²)
// from the label counts instead of scanning all n(n-1)/2 pairs.
type LabelTypes struct {
	vertexLabel []int    // interned label per vertex
	names       []string // label id -> name
	numTypes    int
	totals      []int
	typeLabels  []string
}

// NewLabelTypes interns the per-vertex label strings and precomputes
// the pair-type census: for label counts c_i, the type {i, i} has
// c_i*(c_i-1)/2 pairs and the type {i, j}, i < j, has c_i*c_j.
func NewLabelTypes(labels []string) *LabelTypes {
	index := map[string]int{}
	lt := &LabelTypes{vertexLabel: make([]int, len(labels))}
	for v, name := range labels {
		id, ok := index[name]
		if !ok {
			id = len(lt.names)
			index[name] = id
			lt.names = append(lt.names, name)
		}
		lt.vertexLabel[v] = id
	}
	k := len(lt.names)
	counts := make([]int, k)
	for _, id := range lt.vertexLabel {
		counts[id]++
	}
	lt.numTypes = k * (k + 1) / 2
	lt.totals = make([]int, lt.numTypes)
	lt.typeLabels = make([]string, lt.numTypes)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			id := lt.pairID(i, j)
			if i == j {
				lt.totals[id] = counts[i] * (counts[i] - 1) / 2
			} else {
				lt.totals[id] = counts[i] * counts[j]
			}
			a, b := lt.names[i], lt.names[j]
			if a > b {
				a, b = b, a
			}
			lt.typeLabels[id] = fmt.Sprintf("{%s,%s}", a, b)
		}
	}
	return lt
}

// pairID flattens the unordered label pair (i <= j) exactly like
// DegreeTypes flattens degree pairs.
func (lt *LabelTypes) pairID(i, j int) int {
	if i > j {
		i, j = j, i
	}
	k := len(lt.names)
	return i*k - i*(i-1)/2 + (j - i)
}

// TypeOf returns the type of the pair {u, v}.
func (lt *LabelTypes) TypeOf(u, v int) int {
	return lt.pairID(lt.vertexLabel[u], lt.vertexLabel[v])
}

// NumTypes returns the number of unordered label-pair types.
func (lt *LabelTypes) NumTypes() int { return lt.numTypes }

// Total returns |T| for the type id, counting all pairs of that type.
func (lt *LabelTypes) Total(id int) int { return lt.totals[id] }

// Label renders the type as "{a,b}" with names in lexical order.
func (lt *LabelTypes) Label(id int) string { return lt.typeLabels[id] }

var _ TypeAssigner = (*LabelTypes)(nil)
