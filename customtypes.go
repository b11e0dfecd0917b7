package lopacity

import (
	"context"
	"fmt"

	"repro/internal/apsp"
	"repro/internal/opacity"
)

// PairClassifier assigns a vertex pair to a named type, or returns ""
// for pairs of no interest. It implements the paper's Definition 1 in
// full generality: "our privacy model definition covers any way of
// classifying nodes into types" — label-based, attribute-based, or any
// custom scheme, not only the default degree pairs.
//
// The classifier must be symmetric: Classify(u, v) == Classify(v, u).
type PairClassifier func(u, v int) string

// classifierTypes evaluates the classifier over all n(n-1)/2 pairs of g,
// verifying symmetry, and returns the internal type assigner.
func (g *Graph) classifierTypes(classify PairClassifier) (*opacity.FuncTypes, error) {
	if classify == nil {
		return nil, fmt.Errorf("lopacity: nil classifier")
	}
	n := g.N()
	index := map[string]int{}
	var labels []string
	var totals []int
	pairType := make([]int, n*n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			name := classify(u, v)
			if name != classify(v, u) {
				return nil, fmt.Errorf("lopacity: classifier is asymmetric on (%d, %d): %q vs %q",
					u, v, name, classify(v, u))
			}
			id := -1
			if name != "" {
				var ok bool
				id, ok = index[name]
				if !ok {
					id = len(labels)
					index[name] = id
					labels = append(labels, name)
					totals = append(totals, 0)
				}
				totals[id]++
			}
			pairType[u*n+v] = id
		}
	}
	fn := func(u, v int) int {
		if u > v {
			u, v = v, u
		}
		return pairType[u*n+v]
	}
	return opacity.NewFuncTypes(fn, totals, labels), nil
}

// OpacityBy computes the L-opacity report of g under an arbitrary
// vertex-pair classification. Type totals |T| count every classified
// pair, reachable or not, per Definition 2.
//
// The classifier is evaluated on all n(n-1)/2 vertex pairs, so this is
// an O(n^2) operation plus the distance computation.
func (g *Graph) OpacityBy(L int, classify PairClassifier) (OpacityReport, error) {
	if L < 1 || L > apsp.MaxL {
		return OpacityReport{}, fmt.Errorf("lopacity: L must be in [1, %d], got %d", apsp.MaxL, L)
	}
	types, err := g.classifierTypes(classify)
	if err != nil {
		return OpacityReport{}, err
	}
	return g.typeReport(L, types), nil
}

// typeReport computes the opacity report of g under a type system over
// a fresh store capped at L.
func (g *Graph) typeReport(L int, types opacity.TypeAssigner) OpacityReport {
	return publicReport(L, opacity.NewTypeReport(types, apsp.Build(g.g, L, apsp.BuildOptions{})))
}

// AnonymizeBy runs an anonymization method under an arbitrary
// vertex-pair classification instead of the default degree types: the
// run stops when no type's opacity exceeds opts.Theta. The classifier
// is frozen against the input graph before any mutation, matching the
// paper's original-degree publication model.
//
// Only EdgeRemoval, EdgeRemovalInsertion, and SimulatedAnnealing
// support custom types; the Zhang & Zhang baselines are defined on
// degree pairs and reject a classifier.
func AnonymizeBy(g *Graph, opts Options, classify PairClassifier) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("lopacity: nil graph")
	}
	if opts.Theta < 0 || opts.Theta > 1 {
		return nil, fmt.Errorf("lopacity: theta %v outside [0, 1]", opts.Theta)
	}
	types, err := g.classifierTypes(classify)
	if err != nil {
		return nil, err
	}
	return anonymizeWith(context.Background(), g, opts, types, "custom pair types")
}

// OpacityByLabels computes the L-opacity report when every vertex
// carries a categorical label and pairs are typed by unordered label
// pair — the node-labeled setting of the related work. The census is
// one walk of the distance rows per label class, not the classifier's
// per-pair lookup. labels must have exactly N entries.
//
// A type is labelled "{a,b}" with the two rendered label names in
// ascending byte order. Rendering writes '%', ',', '{' and '}' as %25,
// %2C, %7B and %7D and keeps every other byte, so "{a,b}" splits at its
// only comma and two label pairs never share a type label; names
// without those four characters render as themselves.
func (g *Graph) OpacityByLabels(L int, labels []string) (OpacityReport, error) {
	if L < 1 || L > apsp.MaxL {
		return OpacityReport{}, fmt.Errorf("lopacity: L must be in [1, %d], got %d", apsp.MaxL, L)
	}
	lt, err := g.labelTypes(labels)
	if err != nil {
		return OpacityReport{}, err
	}
	return g.typeReport(L, lt), nil
}

// AnonymizeByLabels runs an anonymization method with label-pair
// vertex-pair types. Labels are frozen against the input graph's
// vertex identifiers; the same restrictions as AnonymizeBy apply.
func AnonymizeByLabels(g *Graph, opts Options, labels []string) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("lopacity: nil graph")
	}
	lt, err := g.labelTypes(labels)
	if err != nil {
		return nil, err
	}
	if opts.Theta < 0 || opts.Theta > 1 {
		return nil, fmt.Errorf("lopacity: theta %v outside [0, 1]", opts.Theta)
	}
	return anonymizeWith(context.Background(), g, opts, lt, "label types")
}

// labelTypes validates and interns per-vertex labels.
func (g *Graph) labelTypes(labels []string) (*opacity.ClassTypes, error) {
	if len(labels) != g.N() {
		return nil, fmt.Errorf("lopacity: %d labels for %d vertices", len(labels), g.N())
	}
	for v, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("lopacity: vertex %d has an empty label", v)
		}
	}
	return opacity.NewLabelTypes(labels), nil
}
