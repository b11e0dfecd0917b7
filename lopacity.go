// Package lopacity is the public face of this reproduction of
// "L-opacity: Linkage-Aware Graph Anonymization" (Nobari, Karras, Pang,
// Bressan; EDBT 2014).
//
// The library anonymizes a simple undirected graph so that an adversary
// who knows the original degrees of two individuals cannot infer, with
// confidence above a threshold theta, that the two are connected by a
// path of length at most L. The privacy model is the paper's L-opacity
// (Definitions 1-3); the anonymizers are its Edge Removal and Edge
// Removal/Insertion greedy heuristics with look-ahead (Algorithms 4-5),
// plus the Zhang & Zhang baselines it compares against.
//
// A minimal end-to-end use:
//
//	g := lopacity.NewGraph(7)
//	for _, e := range [][2]int{{0, 1}, {1, 2}, ...} {
//		g.AddEdge(e[0], e[1])
//	}
//	res, err := lopacity.Anonymize(g, lopacity.Options{L: 1, Theta: 0.5})
//	if err != nil { ... }
//	fmt.Println(res.Satisfied, res.MaxOpacity)
//	util := lopacity.Compare(g, res.Graph)
//	fmt.Println(util.Distortion)
//
// All distance computation runs over an L-capped store (internal/apsp)
// built by one bit-parallel BFS sweep. Because the model caps distances
// at L+1, the store packs one uint8 per vertex pair whenever L fits —
// four times smaller than an int32 layout, which is the dominant memory
// cost on large graphs. Only the sweep's parallelism is configurable
// (Options.Workers, ReportOptions.Workers).
//
// The heavy lifting lives in the internal packages (graph, apsp,
// opacity, anonymize, baseline, metrics, gen, dataset, satreduce,
// experiments); this package re-exposes the subset a downstream user
// needs without leaking internal types.
package lopacity

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/anonymize"
	"repro/internal/apsp"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/opacity"
)

// Graph is a mutable simple undirected graph over vertices 0..n-1: no
// self-loops, no parallel edges, no weights — the paper's data model.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	return &Graph{g: graph.New(n)}
}

// FromEdges builds a graph on n vertices from an edge list. Duplicate
// edges and self-loops are ignored, matching the simple-graph model.
func FromEdges(n int, edges [][2]int) *Graph {
	return &Graph{g: graph.FromPairs(n, edges)}
}

// WrapGraph exposes an internal graph as the public type without
// copying it: both views share one adjacency, so neither may be mutated
// while the other is in use. The serving registry uses it to keep one
// graph per registered entry.
func WrapGraph(g *graph.Graph) *Graph { return &Graph{g: g} }

// ReadEdgeList parses a whitespace-separated "u v" edge list (SNAP
// style; '#' comments allowed) and returns the graph.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g, _, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteEdgeList writes the graph in the same edge-list format.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	return graph.WriteEdgeList(w, g.g)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.g.Degree(v) }

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.g.HasEdge(u, v) }

// AddEdge inserts the edge {u, v}; it reports whether the graph
// changed (false for self-loops and existing edges). It panics if
// either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) bool { return g.g.AddEdge(u, v) }

// RemoveEdge deletes the edge {u, v}; it reports whether the graph
// changed.
func (g *Graph) RemoveEdge(u, v int) bool { return g.g.RemoveEdge(u, v) }

// Edges returns every edge as an ordered (u < v) pair, sorted.
func (g *Graph) Edges() [][2]int {
	es := g.g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// Neighbors returns the sorted neighbors of v.
func (g *Graph) Neighbors(v int) []int { return g.g.Neighbors(v) }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph { return &Graph{g: g.g.Clone()} }

// Distance returns the geodesic distance between u and v, or -1 when
// they are disconnected.
func (g *Graph) Distance(u, v int) int { return g.g.GeodesicLength(u, v) }

// Method selects an anonymization algorithm.
type Method int

const (
	// EdgeRemoval is the paper's Algorithm 4: greedily remove the edge
	// whose removal yields the lowest maximum opacity.
	EdgeRemoval Method = iota
	// EdgeRemovalInsertion is the paper's Algorithm 5: alternate
	// removals with insertions, keeping the edge count constant.
	EdgeRemovalInsertion
	// GADEDRand, GADEDMax, and GADES are the Zhang & Zhang (CSE 2009)
	// baselines the paper compares against; they are defined only for
	// L = 1.
	GADEDRand
	GADEDMax
	GADES
	// SimulatedAnnealing is this reproduction's future-work extension: a
	// Metropolis search over the joint removal/insertion space that can
	// escape the local optima the paper's look-ahead works around. It
	// returns the cheapest feasible state encountered.
	SimulatedAnnealing
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case EdgeRemoval:
		return "Rem"
	case EdgeRemovalInsertion:
		return "Rem-Ins"
	case GADEDRand:
		return "GADED-Rand"
	case GADEDMax:
		return "GADED-Max"
	case GADES:
		return "GADES"
	case SimulatedAnnealing:
		return "Anneal"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a case-insensitive method name ("rem", "rem-ins",
// "gaded-rand", "gaded-max", "gades", "anneal", plus long-form aliases)
// to its Method. CLI tools and the HTTP service share this mapping.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "rem", "removal":
		return EdgeRemoval, nil
	case "rem-ins", "remins", "removal-insertion":
		return EdgeRemovalInsertion, nil
	case "gaded-rand":
		return GADEDRand, nil
	case "gaded-max":
		return GADEDMax, nil
	case "gades":
		return GADES, nil
	case "anneal", "annealing", "sa":
		return SimulatedAnnealing, nil
	}
	return 0, fmt.Errorf("lopacity: unknown method %q (want rem, rem-ins, gaded-rand, gaded-max, gades, or anneal)", s)
}

// Options configures Anonymize.
type Options struct {
	// L is the path-length threshold, from 1 to 2147483646 (the
	// largest a distance store can cap at). Linkages of length at most
	// L are the ones the model protects. Defaults to 1.
	L int
	// Theta is the confidence ceiling in [0, 1]: after anonymization no
	// vertex-pair type has more than a Theta fraction of its pairs
	// within distance L. Required.
	Theta float64
	// Method picks the heuristic; default EdgeRemoval.
	Method Method
	// LookAhead is the paper's la parameter (>= 1, default 1): the
	// largest edge-combination size tried when no single-edge move
	// strictly improves the objective.
	LookAhead int
	// Seed makes tie-breaking deterministic.
	Seed int64
	// Workers sets the number of goroutines used to evaluate candidate
	// edits (default 1). Parallel runs return bit-for-bit the same
	// result as sequential ones.
	Workers int
	// TraceWriter, when non-nil, receives a JSON line (TraceStep) after
	// every committed greedy move — an audit log of the anonymization.
	// Only EdgeRemoval, EdgeRemovalInsertion, and SimulatedAnnealing
	// emit traces.
	TraceWriter io.Writer
	// Budget bounds the wall-clock time of the run; zero means
	// unlimited. On exhaustion the best-effort graph is returned with
	// Result.TimedOut set. Supported by EdgeRemoval,
	// EdgeRemovalInsertion, and SimulatedAnnealing.
	Budget time.Duration
	// Progress, when non-nil, receives a lightweight report after every
	// committed greedy step or accepted annealing move: steps so far,
	// the current maximum opacity, and the wall-clock consumed. It is
	// invoked synchronously on the run's goroutine — implementations
	// must be fast and must not block. Supported by EdgeRemoval,
	// EdgeRemovalInsertion, and SimulatedAnnealing; the GADED baselines
	// do not report progress (they are L=1-only and cheap).
	Progress func(Progress)
	// Distances, when non-nil, seeds the run from a prebuilt L-capped
	// distance store of the input graph (same vertex count, same L).
	// The run routes its mutations through a sparse copy-on-write
	// overlay over the store instead of rebuilding APSP — the serving
	// layer's registry obtains handles via WrapDistances — and never
	// mutates the original, so one store may seed many concurrent
	// runs, including read-only paged views of triangles larger
	// than RAM; no full copy of the store is ever
	// taken. The anonymization outcome is identical either way; only
	// the per-run setup cost changes. Supported by EdgeRemoval,
	// EdgeRemovalInsertion, and SimulatedAnnealing.
	Distances *DistanceStore
}

// Progress is a point-in-time report of a running anonymization,
// delivered through Options.Progress after every committed step.
type Progress struct {
	// Steps counts committed greedy iterations (or accepted annealing
	// moves) so far.
	Steps int
	// MaxOpacity is the graph-level maximum opacity after the last
	// committed step; the run targets MaxOpacity <= Options.Theta.
	MaxOpacity float64
	// Elapsed is the wall-clock time consumed since the run started.
	Elapsed time.Duration
	// Budget echoes Options.Budget; zero reports an unbounded run.
	Budget time.Duration
}

// progressFunc adapts the public Progress callback to the internal
// anonymize hook; nil maps to nil so the hot loops skip the adapter
// entirely.
func progressFunc(fn func(Progress)) func(anonymize.Progress) {
	if fn == nil {
		return nil
	}
	return func(p anonymize.Progress) {
		fn(Progress{Steps: p.Steps, MaxOpacity: p.MaxLO, Elapsed: p.Elapsed, Budget: p.Budget})
	}
}

// DistanceStore is an opaque handle to a prebuilt L-capped distance
// store. Handles come from this module's serving layers (the graph
// registry caches one store per (graph, L)); pass one
// through Options.Distances or Adversary.UseDistances to skip the APSP
// build those operations would otherwise pay. The underlying store is
// treated as read-only by every consumer.
type DistanceStore struct {
	s apsp.Store
}

// WrapDistances wraps a prebuilt internal distance store in the public
// handle. It exists for this module's serving layers (registry,
// server), which hold apsp.Store values; external callers cannot
// construct the argument and should obtain handles from those layers.
func WrapDistances(s apsp.Store) *DistanceStore {
	if s == nil {
		return nil
	}
	return &DistanceStore{s: s}
}

// N returns the vertex count the store covers.
func (d *DistanceStore) N() int { return d.s.N() }

// L returns the distance threshold the store is capped at.
func (d *DistanceStore) L() int { return d.s.L() }

// store returns the wrapped internal store, nil-safe.
func (d *DistanceStore) store() apsp.Store {
	if d == nil {
		return nil
	}
	return d.s
}

// Result reports an anonymization run.
type Result struct {
	// Graph is the anonymized graph; the input graph is not modified.
	Graph *Graph
	// Satisfied reports whether L-opacity w.r.t. Theta was reached.
	// When false, Graph holds the best effort (the paper's heuristics
	// run until the graph is exhausted).
	Satisfied bool
	// MaxOpacity is the achieved graph-level maximum opacity.
	MaxOpacity float64
	// Removed and Inserted list the edge edits in commit order.
	Removed, Inserted [][2]int
	// Steps counts greedy iterations.
	Steps int
	// TimedOut reports that the run stopped because Options.Budget was
	// exhausted before reaching the privacy target.
	TimedOut bool
	// Cancelled reports that the run stopped because the context passed
	// to AnonymizeContext was cancelled; Graph holds the best effort at
	// that moment.
	Cancelled bool
}

// Anonymize transforms g into an L-opaque graph with respect to
// opts.Theta using the selected method, leaving g untouched.
func Anonymize(g *Graph, opts Options) (*Result, error) {
	return AnonymizeContext(context.Background(), g, opts)
}

// AnonymizeContext is Anonymize under a context. The greedy and
// annealing methods poll the context between iterations — the same
// boundary the wall-clock budget is checked at — so cancelling the
// context stops the computation itself promptly; the best-effort
// result is returned with Result.Cancelled set. The GADED baselines do
// not observe the context (they are L=1-only and cheap).
func AnonymizeContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("lopacity: nil graph")
	}
	if opts.Theta < 0 || opts.Theta > 1 {
		return nil, fmt.Errorf("lopacity: theta %v outside [0, 1]", opts.Theta)
	}
	if opts.L < 0 {
		return nil, fmt.Errorf("lopacity: L %d must be >= 1", opts.L)
	}
	return anonymizeWith(ctx, g, opts, nil, "")
}

// anonymizeWith runs opts.Method on g, after the caller's validation,
// with vertex-pair types from types — nil meaning the degree types of
// the input graph. Only EdgeRemoval, EdgeRemovalInsertion and
// SimulatedAnnealing take other types; for any other method the error
// names what the caller's types are.
func anonymizeWith(ctx context.Context, g *Graph, opts Options, types opacity.TypeAssigner, what string) (*Result, error) {
	if opts.L == 0 {
		opts.L = 1
	}
	if opts.LookAhead == 0 {
		opts.LookAhead = 1
	}
	var traceErr error
	var trace func(anonymize.Step)
	if opts.TraceWriter != nil {
		trace = traceFunc(opts.TraceWriter, &traceErr)
	}
	var res anonymize.Result
	var err error
	switch opts.Method {
	case EdgeRemoval, EdgeRemovalInsertion:
		h := anonymize.Removal
		if opts.Method == EdgeRemovalInsertion {
			h = anonymize.RemovalInsertion
		}
		res, err = anonymize.RunContext(ctx, g.g, anonymize.Options{
			L: opts.L, Theta: opts.Theta, Heuristic: h,
			LookAhead: opts.LookAhead, Seed: opts.Seed,
			Workers:   opts.Workers,
			Budget:    opts.Budget,
			Types:     types,
			Trace:     trace,
			Progress:  progressFunc(opts.Progress),
			Distances: opts.Distances.store(),
		})
	case SimulatedAnnealing:
		res, err = anonymize.AnnealContext(ctx, g.g, anonymize.AnnealOptions{
			L: opts.L, Theta: opts.Theta, Seed: opts.Seed,
			Budget:    opts.Budget,
			Types:     types,
			Trace:     trace,
			Progress:  progressFunc(opts.Progress),
			Distances: opts.Distances.store(),
		})
	default:
		if types != nil {
			return nil, fmt.Errorf("lopacity: method %v does not support %s", opts.Method, what)
		}
		return anonymizeBaseline(g, opts)
	}
	if err != nil {
		return nil, err
	}
	if traceErr != nil {
		return nil, traceErr
	}
	return &Result{
		Graph:      &Graph{g: res.Graph},
		Satisfied:  res.Satisfied,
		MaxOpacity: res.FinalLO,
		Removed:    toPairs(res.Removed),
		Inserted:   toPairs(res.Inserted),
		Steps:      res.Steps,
		TimedOut:   res.TimedOut,
		Cancelled:  res.Cancelled,
	}, nil
}

// anonymizeBaseline runs one of the Zhang & Zhang baselines, which are
// defined only for degree types at L = 1.
func anonymizeBaseline(g *Graph, opts Options) (*Result, error) {
	alg, ok := map[Method]baseline.Algorithm{
		GADEDRand: baseline.GADEDRand,
		GADEDMax:  baseline.GADEDMax,
		GADES:     baseline.GADES,
	}[opts.Method]
	if !ok {
		return nil, fmt.Errorf("lopacity: unknown method %v", opts.Method)
	}
	if opts.L != 1 {
		return nil, fmt.Errorf("lopacity: %v is defined only for L = 1 (got L = %d)", opts.Method, opts.L)
	}
	res, err := baseline.Run(g.g, alg, baseline.Options{Theta: opts.Theta, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	removed, inserted := swapEdits(res)
	return &Result{
		Graph:      &Graph{g: res.Graph},
		Satisfied:  res.Satisfied,
		MaxOpacity: res.FinalLO,
		Removed:    removed,
		Inserted:   inserted,
		Steps:      res.Steps,
	}, nil
}

func toPairs(es []graph.Edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// swapEdits flattens a baseline result's removals and swaps into
// removed/inserted pair lists.
func swapEdits(res baseline.Result) (removed, inserted [][2]int) {
	removed = toPairs(res.Removed)
	for _, s := range res.Swaps {
		for _, e := range s.Removed {
			removed = append(removed, [2]int{e.U, e.V})
		}
		for _, e := range s.Inserted {
			inserted = append(inserted, [2]int{e.U, e.V})
		}
	}
	return removed, inserted
}

// TypeOpacity describes one vertex-pair type in an opacity report.
type TypeOpacity struct {
	// Label identifies the type; with degree-based types it reads
	// "P{d1,d2}" (d1 <= d2), with label types "{a,b}" (see
	// OpacityByLabels).
	Label string
	// Total is |T|: all pairs of the type, reachable or not.
	Total int
	// Within counts pairs at geodesic distance <= L.
	Within int
	// Opacity is Within / Total (Definition 2).
	Opacity float64
}

// OpacityReport is the opacity matrix of a graph (the paper's Figure
// 5c) plus the graph-level maximum (Definition 3).
type OpacityReport struct {
	L int
	// MaxOpacity is max over types of the per-type opacity; the graph
	// is L-opaque w.r.t. theta iff MaxOpacity <= theta.
	MaxOpacity float64
	// Types lists every populated vertex-pair type.
	Types []TypeOpacity
}

// Opacity computes the L-opacity report of g using g's own degrees as
// the type system (the adversary's background knowledge).
func (g *Graph) Opacity(L int) OpacityReport {
	return g.OpacityAgainst(L, g)
}

// OpacityAgainst computes the report of g with vertex-pair types drawn
// from the degrees of original — the paper's publication model, where
// types are frozen from the original graph even as degrees drift under
// anonymization. The two graphs must have the same vertex count.
func (g *Graph) OpacityAgainst(L int, original *Graph) OpacityReport {
	return g.OpacityWith(L, original, ReportOptions{})
}

// ReportOptions sets the parallelism of the distance build behind an
// opacity report; the zero value (sequential below the auto-parallel
// size) is right for most calls.
type ReportOptions struct {
	// Workers is the goroutine count of the build, as in
	// Options.Workers. Every count yields the identical report.
	Workers int
}

// OpacityWith computes the report of g with types frozen from
// original's degrees (nil selects g itself).
func (g *Graph) OpacityWith(L int, original *Graph, opts ReportOptions) OpacityReport {
	if original == nil {
		original = g
	}
	return publicReport(L, opacity.NewReportWith(g.g, original.g.Degrees(), L, apsp.BuildOptions{Workers: opts.Workers}))
}

// publicReport converts an internal opacity report at L to the public
// form.
func publicReport(L int, rep opacity.Report) OpacityReport {
	out := OpacityReport{L: L, MaxOpacity: rep.MaxLO}
	for _, tr := range rep.ByType {
		out.Types = append(out.Types, TypeOpacity{
			Label:   tr.Label,
			Total:   tr.Total,
			Within:  tr.Within,
			Opacity: tr.Opacity,
		})
	}
	return out
}

// Satisfies reports whether g is L-opaque with respect to theta under
// its own degree types.
func (g *Graph) Satisfies(L int, theta float64) bool {
	return opacity.Satisfies(g.g, g.g.Degrees(), L, theta)
}

// Utility summarizes the alteration an anonymization inflicted,
// using the paper's Section 6.2 measures plus two standard structural
// deltas from the wider anonymization literature.
type Utility struct {
	// Distortion is the edit-distance ratio |E xor Ê| / |E| (Eq. 1).
	Distortion float64
	// DegreeEMD is the Earth Mover's Distance between the two degree
	// distributions.
	DegreeEMD float64
	// GeodesicEMD is the EMD between the two geodesic-distance
	// distributions.
	GeodesicEMD float64
	// MeanClusteringDelta is the mean over vertices of |CC - CC'|.
	MeanClusteringDelta float64
	// AssortativityDelta is |r - r'| for Newman's degree
	// assortativity coefficient.
	AssortativityDelta float64
	// AvgPathLengthDelta is |APL - APL'| over reachable pairs.
	AvgPathLengthDelta float64
}

// Distortion returns only the edit-distance ratio |E xor Ê| / |E|
// (Eq. 1). Unlike Compare — which additionally computes the EMD,
// clustering, and path-length deltas, each requiring full traversals
// of both graphs — this is a set difference over the edge lists, cheap
// enough for every serving-path response.
func Distortion(original, anonymized *Graph) float64 {
	return metrics.Distortion(original.g, anonymized.g)
}

// Compare measures the utility cost of anonymized relative to original.
func Compare(original, anonymized *Graph) Utility {
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return Utility{
		Distortion:          metrics.Distortion(original.g, anonymized.g),
		DegreeEMD:           metrics.DegreeEMD(original.g, anonymized.g),
		GeodesicEMD:         metrics.GeodesicEMD(original.g, anonymized.g),
		MeanClusteringDelta: metrics.MeanClusteringDelta(original.g, anonymized.g),
		AssortativityDelta: abs(metrics.DegreeAssortativity(original.g) -
			metrics.DegreeAssortativity(anonymized.g)),
		AvgPathLengthDelta: abs(metrics.AveragePathLength(original.g) -
			metrics.AveragePathLength(anonymized.g)),
	}
}

// Properties aggregates the structural statistics the paper reports in
// Tables 2 and 3, plus assortativity and average path length.
type Properties struct {
	Nodes, Links  int
	Diameter      int
	AvgDegree     float64
	DegreeStdDev  float64
	AvgClustering float64
	// Assortativity is Newman's degree-correlation coefficient.
	Assortativity float64
	// AvgPathLength is the mean geodesic distance over reachable pairs
	// (the small-world statistic of the paper's introduction).
	AvgPathLength float64
}

// Properties computes the graph's structural statistics.
func (g *Graph) Properties() Properties {
	p := metrics.Properties(g.g)
	return Properties{
		Nodes:         p.Nodes,
		Links:         p.Links,
		Diameter:      p.Diameter,
		AvgDegree:     p.Degree.Average,
		DegreeStdDev:  p.Degree.StdDev,
		AvgClustering: p.ACC,
		Assortativity: metrics.DegreeAssortativity(g.g),
		AvgPathLength: metrics.AveragePathLength(g.g),
	}
}

// Datasets returns the keys of the built-in calibrated dataset
// stand-ins (the paper's Table 3 samples).
func Datasets() []string { return dataset.Keys() }

// Dataset generates the named calibrated stand-in deterministically
// from seed. See internal/dataset for the catalog.
func Dataset(key string, seed int64) (*Graph, error) {
	g, err := dataset.GenerateByKey(key, seed)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteGraphML encodes the graph as an undirected GraphML document (the
// format consumed by Gephi, NetworkX, and most graph tooling). Isolated
// vertices are preserved.
func (g *Graph) WriteGraphML(w io.Writer) error { return graph.WriteGraphML(w, g.g) }

// ReadGraphML decodes an undirected GraphML document.
func ReadGraphML(r io.Reader) (*Graph, error) {
	gg, err := graph.ReadGraphML(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// WriteDOT encodes the graph for Graphviz visualization.
func (g *Graph) WriteDOT(w io.Writer) error { return graph.WriteDOT(w, g.g) }
