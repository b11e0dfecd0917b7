package lopacity

import (
	"fmt"
	"sort"

	"repro/internal/anonymize"
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
// verifying symmetry, and returns the internal type assigner plus the
// sorted type labels.
func (g *Graph) classifierTypes(classify PairClassifier) (*opacity.FuncTypes, []string, error) {
	if classify == nil {
		return nil, nil, fmt.Errorf("lopacity: nil classifier")
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
				return nil, nil, fmt.Errorf("lopacity: classifier is asymmetric on (%d, %d): %q vs %q",
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
	return opacity.NewFuncTypes(fn, totals, labels), labels, nil
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
	types, labels, err := g.classifierTypes(classify)
	if err != nil {
		return OpacityReport{}, err
	}

	within := make([]int, types.NumTypes())
	m := apsp.Build(g.g, L, apsp.BuildOptions{})
	m.EachPair(func(u, v, d int) {
		if d > L {
			return
		}
		if id := types.TypeOf(u, v); id >= 0 {
			within[id]++
		}
	})

	out := OpacityReport{L: L}
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return labels[order[a]] < labels[order[b]] })
	for _, id := range order {
		total := types.Total(id)
		lo := 0.0
		if total > 0 {
			lo = float64(within[id]) / float64(total)
		}
		out.Types = append(out.Types, TypeOpacity{
			Label:   labels[id],
			Total:   total,
			Within:  within[id],
			Opacity: lo,
		})
		if lo > out.MaxOpacity {
			out.MaxOpacity = lo
		}
	}
	return out, nil
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
	if opts.L == 0 {
		opts.L = 1
	}
	if opts.LookAhead == 0 {
		opts.LookAhead = 1
	}
	types, _, err := g.classifierTypes(classify)
	if err != nil {
		return nil, err
	}
	var res anonymize.Result
	switch opts.Method {
	case EdgeRemoval, EdgeRemovalInsertion:
		h := anonymize.Removal
		if opts.Method == EdgeRemovalInsertion {
			h = anonymize.RemovalInsertion
		}
		res, err = anonymize.Run(g.g, anonymize.Options{
			L: opts.L, Theta: opts.Theta, Heuristic: h,
			LookAhead: opts.LookAhead, Seed: opts.Seed,
			Workers: opts.Workers, Budget: opts.Budget,
			Types: types,
		})
	case SimulatedAnnealing:
		res, err = anonymize.Anneal(g.g, anonymize.AnnealOptions{
			L: opts.L, Theta: opts.Theta, Seed: opts.Seed,
			Budget: opts.Budget, Types: types,
		})
	default:
		return nil, fmt.Errorf("lopacity: method %v does not support custom pair types", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Graph:      &Graph{g: res.Graph},
		Satisfied:  res.Satisfied,
		MaxOpacity: res.FinalLO,
		Removed:    toPairs(res.Removed),
		Inserted:   toPairs(res.Inserted),
		Steps:      res.Steps,
		TimedOut:   res.TimedOut,
	}, nil
}

// assertFuncTypesCompatible keeps the facade honest: the internal
// tracker consumes the same abstraction, so OpacityBy reports can be
// cross-checked against opacity.NewTracker in tests.
var _ opacity.TypeAssigner = (*opacity.FuncTypes)(nil)

// OpacityByLabels computes the L-opacity report when every vertex
// carries a categorical label and pairs are typed by unordered label
// pair — the node-labeled setting of the related work, computed in
// O(n + #labels²) for the census rather than the classifier's O(n²).
// labels must have exactly N entries.
func (g *Graph) OpacityByLabels(L int, labels []string) (OpacityReport, error) {
	if L < 1 || L > apsp.MaxL {
		return OpacityReport{}, fmt.Errorf("lopacity: L must be in [1, %d], got %d", apsp.MaxL, L)
	}
	lt, err := g.labelTypes(labels)
	if err != nil {
		return OpacityReport{}, err
	}
	within := make([]int, lt.NumTypes())
	m := apsp.Build(g.g, L, apsp.BuildOptions{})
	m.EachPair(func(u, v, d int) {
		if d <= L {
			within[lt.TypeOf(u, v)]++
		}
	})
	out := OpacityReport{L: L}
	order := make([]int, lt.NumTypes())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lt.Label(order[a]) < lt.Label(order[b]) })
	for _, id := range order {
		total := lt.Total(id)
		if total == 0 {
			continue
		}
		lo := float64(within[id]) / float64(total)
		out.Types = append(out.Types, TypeOpacity{
			Label: lt.Label(id), Total: total, Within: within[id], Opacity: lo,
		})
		if lo > out.MaxOpacity {
			out.MaxOpacity = lo
		}
	}
	return out, nil
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
	if opts.L == 0 {
		opts.L = 1
	}
	if opts.LookAhead == 0 {
		opts.LookAhead = 1
	}
	var res anonymize.Result
	switch opts.Method {
	case EdgeRemoval, EdgeRemovalInsertion:
		h := anonymize.Removal
		if opts.Method == EdgeRemovalInsertion {
			h = anonymize.RemovalInsertion
		}
		res, err = anonymize.Run(g.g, anonymize.Options{
			L: opts.L, Theta: opts.Theta, Heuristic: h,
			LookAhead: opts.LookAhead, Seed: opts.Seed,
			Workers: opts.Workers, Budget: opts.Budget,
			Types: lt,
		})
	case SimulatedAnnealing:
		res, err = anonymize.Anneal(g.g, anonymize.AnnealOptions{
			L: opts.L, Theta: opts.Theta, Seed: opts.Seed,
			Budget: opts.Budget, Types: lt,
		})
	default:
		return nil, fmt.Errorf("lopacity: method %v does not support label types", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Graph:      &Graph{g: res.Graph},
		Satisfied:  res.Satisfied,
		MaxOpacity: res.FinalLO,
		Removed:    toPairs(res.Removed),
		Inserted:   toPairs(res.Inserted),
		Steps:      res.Steps,
		TimedOut:   res.TimedOut,
	}, nil
}

// labelTypes validates and interns per-vertex labels.
func (g *Graph) labelTypes(labels []string) (*opacity.LabelTypes, error) {
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
