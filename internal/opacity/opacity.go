package opacity

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// MaxLO is the paper's Algorithm 1 as a one-shot convenience: it computes
// the graph's maximum L-opacity over all degree-pair types, using the
// given ORIGINAL degree vector (which may differ from g's current degrees
// after anonymizing mutations). Pass degrees == nil to use g's own
// degrees (i.e., when g is the original graph).
func MaxLO(g *graph.Graph, degrees []int, L int) float64 {
	if degrees == nil {
		degrees = g.Degrees()
	}
	m := apsp.Build(g, L, apsp.BuildOptions{})
	return NewTracker(NewDegreeTypes(degrees), m).Evaluate().MaxLO
}

// Satisfies reports whether g is L-opaque with respect to theta under the
// algorithmic convention of the paper's Algorithms 4 and 5: the loop runs
// while LO(G') > theta, so LO <= theta satisfies.
func Satisfies(g *graph.Graph, degrees []int, L int, theta float64) bool {
	return MaxLO(g, degrees, L) <= theta
}

// TypeReport describes one vertex-pair type in a Report.
type TypeReport struct {
	Label   string
	Total   int // |T|, including unreachable pairs
	Within  int // pairs at distance <= L
	Opacity float64
}

// Report is the full opacity matrix of a graph (the paper's Figure 5c)
// plus the graph-level summary.
type Report struct {
	L      int
	MaxLO  float64
	N      int // population of types attaining MaxLO
	ByType []TypeReport
}

// NewReport computes a full opacity report for g with the given original
// degrees (nil for g's own).
func NewReport(g *graph.Graph, degrees []int, L int) Report {
	return NewReportWith(g, degrees, L, apsp.BuildOptions{})
}

// NewReportWith is NewReport with explicit distance-build options.
func NewReportWith(g *graph.Graph, degrees []int, L int, build apsp.BuildOptions) Report {
	if degrees == nil {
		degrees = g.Degrees()
	}
	return NewReportFromStore(degrees, apsp.Build(g, L, build))
}

// NewReportFromStore computes the report over a prebuilt distance
// store — the serving path caches stores per registered graph and
// reuses them across requests, skipping the APSP build entirely.
// degrees must be the original degree vector the pair types are drawn
// from; the store is only read, so it may be shared concurrently.
func NewReportFromStore(degrees []int, m apsp.Store) Report {
	return NewTypeReport(NewDegreeTypes(degrees), m)
}

// NewTypeReport computes the report of any type system over a prebuilt
// distance store: one census of the pairs within m.L() (NewTracker),
// then a row per populated type in ascending label order. Labels and
// the order are built here, once per report: class types write them
// into one buffer (ClassTypes.rows), any other assigner's IDs are
// sorted by Label, equal labels by ID. The store is only read, so it
// may be shared concurrently.
func NewTypeReport(types TypeAssigner, m apsp.Store) Report {
	tr := NewTracker(types, m)
	ev := tr.Evaluate()
	rep := Report{L: m.L(), MaxLO: ev.MaxLO, N: ev.Population}
	labelRows(types, func(id int, label string) {
		if types.Total(id) == 0 {
			return
		}
		if rep.ByType == nil {
			rep.ByType = make([]TypeReport, 0, types.NumTypes())
		}
		rep.ByType = append(rep.ByType, TypeReport{
			Label:   label,
			Total:   types.Total(id),
			Within:  tr.Count(id),
			Opacity: tr.OpacityOf(id),
		})
	})
	return rep
}

// labelRows calls fn with every type ID and its label in ascending
// label order.
func labelRows(types TypeAssigner, fn func(id int, label string)) {
	if c, ok := types.(*ClassTypes); ok {
		c.rows(fn)
		return
	}
	order := make([]int, types.NumTypes())
	for id := range order {
		order[id] = id
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(types.Label(a), types.Label(b)) })
	for _, id := range order {
		fn(id, types.Label(id))
	}
}

// String renders the report as an aligned table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L=%d  maxLO=%.4f  N(maxLO)=%d\n", r.L, r.MaxLO, r.N)
	fmt.Fprintf(&b, "%-12s %8s %8s %9s\n", "type", "within", "total", "opacity")
	for _, t := range r.ByType {
		fmt.Fprintf(&b, "%-12s %8d %8d %9.4f\n", t.Label, t.Within, t.Total, t.Opacity)
	}
	return b.String()
}
