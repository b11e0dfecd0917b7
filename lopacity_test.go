package lopacity

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// figure1 builds the paper's Figure 1 example graph through the public
// API (vertices renumbered 0-6).
func figure1() *Graph {
	return FromEdges(7, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4},
		{2, 4}, {2, 5}, {3, 4}, {4, 5}, {5, 6},
	})
}

func TestGraphBasics(t *testing.T) {
	g := figure1()
	if g.N() != 7 || g.M() != 10 {
		t.Fatalf("N=%d M=%d, want 7, 10", g.N(), g.M())
	}
	wantDeg := []int{2, 4, 4, 2, 4, 3, 1}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) false")
	}
	if g.HasEdge(0, 6) {
		t.Error("HasEdge(0,6) true")
	}
	if g.AddEdge(0, 0) {
		t.Error("AddEdge self-loop accepted")
	}
	if g.AddEdge(0, 1) {
		t.Error("AddEdge duplicate accepted")
	}
	if len(g.Edges()) != 10 {
		t.Fatalf("Edges() length %d", len(g.Edges()))
	}
	if got := g.Neighbors(6); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Neighbors(6) = %v", got)
	}
}

func TestGraphDistances(t *testing.T) {
	g := figure1()
	// Figure 4a: l(1,7) = 3 in the paper's 1-based labels.
	if d := g.Distance(0, 6); d != 3 {
		t.Fatalf("Distance(0,6) = %d, want 3", d)
	}
	if d := g.Distance(3, 3); d != 0 {
		t.Fatalf("Distance(3,3) = %d, want 0", d)
	}
	iso := NewGraph(2)
	if d := iso.Distance(0, 1); d != -1 {
		t.Fatalf("Distance on disconnected pair = %d, want -1", d)
	}
}

func TestCloneIsolation(t *testing.T) {
	g := figure1()
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestOpacityMatchesPaperFigure5(t *testing.T) {
	g := figure1()
	rep := g.Opacity(1)
	if rep.MaxOpacity != 1 {
		t.Fatalf("MaxOpacity = %v, want 1 (the paper's {4,4} type)", rep.MaxOpacity)
	}
	byLabel := map[string]TypeOpacity{}
	for _, ty := range rep.Types {
		byLabel[ty.Label] = ty
	}
	// Paper Figure 5c: LO(P{3,4}) = 2/3, LO(P{4,4}) = 3/3 = 1,
	// LO(P{1,3}) = 1, LO(P{2,4}) = 4/6.
	checks := []struct {
		label   string
		within  int
		total   int
		opacity float64
	}{
		{"P{3,4}", 2, 3, 2.0 / 3},
		{"P{4,4}", 3, 3, 1},
		{"P{1,3}", 1, 1, 1},
		{"P{2,4}", 4, 6, 4.0 / 6},
	}
	for _, c := range checks {
		got, ok := byLabel[c.label]
		if !ok {
			t.Fatalf("type %s missing from report (have %v)", c.label, rep.Types)
		}
		if got.Within != c.within || got.Total != c.total {
			t.Errorf("%s: within/total = %d/%d, want %d/%d", c.label, got.Within, got.Total, c.within, c.total)
		}
		if math.Abs(got.Opacity-c.opacity) > 1e-12 {
			t.Errorf("%s: opacity = %v, want %v", c.label, got.Opacity, c.opacity)
		}
	}
}

func TestSatisfies(t *testing.T) {
	g := figure1()
	if !g.Satisfies(1, 1) {
		t.Error("graph should satisfy theta = 1")
	}
	if g.Satisfies(1, 0.9) {
		t.Error("graph should not satisfy theta = 0.9 (a type has opacity 1)")
	}
}

func TestAnonymizeEdgeRemoval(t *testing.T) {
	g := figure1()
	res, err := Anonymize(g, Options{L: 1, Theta: 0.5, Method: EdgeRemoval, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: max opacity %v", res.MaxOpacity)
	}
	if res.MaxOpacity > 0.5 {
		t.Fatalf("MaxOpacity = %v > theta", res.MaxOpacity)
	}
	// The privacy guarantee is measured against the original degrees.
	if rep := res.Graph.OpacityAgainst(1, g); rep.MaxOpacity > 0.5 {
		t.Fatalf("OpacityAgainst original = %v > theta", rep.MaxOpacity)
	}
	// Removal-only: no insertions, and the input graph is untouched.
	if len(res.Inserted) != 0 {
		t.Fatalf("EdgeRemoval inserted edges: %v", res.Inserted)
	}
	if g.M() != 10 {
		t.Fatal("input graph was mutated")
	}
	if res.Graph.M() != 10-len(res.Removed) {
		t.Fatalf("M = %d after %d removals", res.Graph.M(), len(res.Removed))
	}
}

func TestAnonymizeRemovalInsertionKeepsEdgeCount(t *testing.T) {
	g, err := Dataset("enron100", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anonymize(g, Options{L: 1, Theta: 0.6, Method: EdgeRemovalInsertion, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: %v", res.MaxOpacity)
	}
	if res.Graph.M() != g.M() {
		t.Fatalf("edge count drifted: %d -> %d", g.M(), res.Graph.M())
	}
	if len(res.Removed) != len(res.Inserted) {
		t.Fatalf("removed %d != inserted %d", len(res.Removed), len(res.Inserted))
	}
}

func TestAnonymizeBaselines(t *testing.T) {
	g, err := Dataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{GADEDRand, GADEDMax, GADES} {
		res, err := Anonymize(g, Options{L: 1, Theta: 0.7, Method: m, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Graph == nil {
			t.Fatalf("%v: nil graph", m)
		}
		if res.Satisfied && res.MaxOpacity > 0.7 {
			t.Fatalf("%v: satisfied but MaxOpacity %v", m, res.MaxOpacity)
		}
	}
	// Baselines reject L >= 2.
	if _, err := Anonymize(g, Options{L: 2, Theta: 0.7, Method: GADEDMax}); err == nil {
		t.Fatal("GADED-Max accepted L = 2")
	}
}

func TestAnonymizeValidation(t *testing.T) {
	g := figure1()
	if _, err := Anonymize(nil, Options{Theta: 0.5}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Anonymize(g, Options{Theta: 1.5}); err == nil {
		t.Error("theta > 1 accepted")
	}
	if _, err := Anonymize(g, Options{Theta: -0.1}); err == nil {
		t.Error("theta < 0 accepted")
	}
	if _, err := Anonymize(g, Options{Theta: 0.5, L: -1}); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := Anonymize(g, Options{Theta: 0.5, L: math.MaxInt32}); err == nil {
		t.Error("L above the largest store threshold accepted")
	}
	if _, err := ReplayTrace(g, strings.NewReader(""), ReplayOptions{L: math.MaxInt32}); err == nil {
		t.Error("ReplayTrace: L above the largest store threshold accepted")
	}
	if _, err := Anonymize(g, Options{Theta: 0.5, Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
	// Defaults: L = 1, LookAhead = 1.
	res, err := Anonymize(g, Options{Theta: 1})
	if err != nil || !res.Satisfied {
		t.Fatalf("defaulted run failed: %v %+v", err, res)
	}
}

func TestCompare(t *testing.T) {
	g := figure1()
	same := Compare(g, g.Clone())
	if same.Distortion != 0 || same.DegreeEMD != 0 || same.GeodesicEMD != 0 || same.MeanClusteringDelta != 0 {
		t.Fatalf("Compare(g, g) = %+v, want zeros", same)
	}
	h := g.Clone()
	h.RemoveEdge(0, 1)
	diff := Compare(g, h)
	if diff.Distortion != 0.1 {
		t.Fatalf("Distortion = %v, want 0.1 (1 edit / 10 edges)", diff.Distortion)
	}
	if diff.DegreeEMD <= 0 {
		t.Fatalf("DegreeEMD = %v, want > 0", diff.DegreeEMD)
	}
}

func TestProperties(t *testing.T) {
	g := figure1()
	p := g.Properties()
	if p.Nodes != 7 || p.Links != 10 {
		t.Fatalf("Properties = %+v", p)
	}
	if p.Diameter != 3 {
		t.Fatalf("Diameter = %d, want 3", p.Diameter)
	}
	if math.Abs(p.AvgDegree-20.0/7) > 1e-9 {
		t.Fatalf("AvgDegree = %v", p.AvgDegree)
	}
	if p.AvgClustering <= 0 || p.AvgClustering > 1 {
		t.Fatalf("AvgClustering = %v", p.AvgClustering)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := figure1()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d", back.N(), back.M())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
	if _, err := ReadEdgeList(strings.NewReader("1 two\n")); err == nil {
		t.Fatal("malformed edge list accepted")
	}
}

func TestDatasets(t *testing.T) {
	keys := Datasets()
	if len(keys) == 0 {
		t.Fatal("no datasets")
	}
	g, err := Dataset(keys[0], 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() == 0 || g.M() == 0 {
		t.Fatalf("empty dataset %s", keys[0])
	}
	// Determinism: the same key and seed give the same graph.
	h, err := Dataset(keys[0], 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != h.M() {
		t.Fatal("dataset generation is not deterministic")
	}
	if _, err := Dataset("no-such-dataset", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		EdgeRemoval:          "Rem",
		EdgeRemovalInsertion: "Rem-Ins",
		GADEDRand:            "GADED-Rand",
		GADEDMax:             "GADED-Max",
		GADES:                "GADES",
		Method(42):           "Method(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestAnonymizeIntroductionAttackNeutralized(t *testing.T) {
	// The introduction's linkage attack: in Figure 1, every valid
	// assignment of two degree-4 individuals (Charles, Agatha) places
	// them on the {2,3,5} triangle, so the adversary infers the edge
	// with confidence 1. After 1-opacification at theta = 0.5, at most
	// half of the degree-4 pairs may be adjacent. (Edge Removal is used
	// because keeping all ten edges, as Rem-Ins does, is infeasible at
	// theta = 0.5 on this tiny graph: the per-type capacities sum to 8.)
	g := figure1()
	res, err := Anonymize(g, Options{L: 1, Theta: 0.5, Method: EdgeRemoval, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("attack not neutralized: %v", res.MaxOpacity)
	}
	rep := res.Graph.OpacityAgainst(1, g)
	for _, ty := range rep.Types {
		if ty.Label == "P{4,4}" && ty.Opacity > 0.5 {
			t.Fatalf("P{4,4} opacity still %v", ty.Opacity)
		}
	}
}

func TestAdversaryFacade(t *testing.T) {
	g := figure1()
	adv, err := NewAdversary(g, g)
	if err != nil {
		t.Fatal(err)
	}
	// Charles-Agatha: the three degree-4 candidates form a triangle.
	inf := adv.LinkageConfidence(4, 4, 1)
	if inf.Confidence != 1 || inf.Total != 3 {
		t.Fatalf("LinkageConfidence(4,4,1) = %+v", inf)
	}
	if max := adv.MaxConfidence(1); max.Confidence != 1 {
		t.Fatalf("MaxConfidence = %+v", max)
	}
	vuln := adv.VulnerablePairs(1, 0.5)
	if len(vuln) == 0 {
		t.Fatal("no vulnerable pairs on Figure 1")
	}
	if ids := adv.IdentityCandidates(); len(ids) == 0 || ids[0] != 1 {
		t.Fatalf("IdentityCandidates = %v", ids)
	}

	// After anonymization the adversary (still using ORIGINAL degrees)
	// finds nothing above theta.
	res, err := Anonymize(g, Options{L: 1, Theta: 0.5, Seed: 1})
	if err != nil || !res.Satisfied {
		t.Fatalf("anonymize: %v %+v", err, res)
	}
	after, err := NewAdversary(res.Graph, g)
	if err != nil {
		t.Fatal(err)
	}
	if vuln := after.VulnerablePairs(1, 0.5); len(vuln) != 0 {
		t.Fatalf("vulnerable pairs remain: %v", vuln)
	}
}

func TestAdversaryMismatchedSizes(t *testing.T) {
	if _, err := NewAdversary(NewGraph(3), NewGraph(5)); err == nil {
		t.Fatal("mismatched vertex counts accepted")
	}
}

func TestAnonymizeKDegree(t *testing.T) {
	g, err := Dataset("enron100", 3)
	if err != nil {
		t.Fatal(err)
	}
	if IsKDegreeAnonymous(g, 5) {
		t.Skip("sample is already 5-degree anonymous; pick another seed")
	}
	res, err := AnonymizeKDegree(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Supergraph: only insertions.
	if res.Graph.M() != g.M()+len(res.Inserted) {
		t.Fatalf("M = %d with %d insertions from %d", res.Graph.M(), len(res.Inserted), g.M())
	}
	if res.Realized && !IsKDegreeAnonymous(res.Graph, 5) {
		t.Fatal("realized result not 5-degree anonymous")
	}
	// The paper's motivating claim: identity protection does not bound
	// linkage confidence.
	adv, err := NewAdversary(res.Graph, res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if max := adv.MaxConfidence(2); max.Confidence < 0.6 {
		t.Logf("note: linkage confidence after k-degree anonymity is %v (usually stays high)", max.Confidence)
	}
	if _, err := AnonymizeKDegree(NewGraph(2), 5); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestPropertiesStructuralExtras(t *testing.T) {
	g := figure1()
	p := g.Properties()
	if p.Assortativity < -1 || p.Assortativity > 1 {
		t.Fatalf("Assortativity = %v", p.Assortativity)
	}
	if p.AvgPathLength <= 1 || p.AvgPathLength >= float64(p.Diameter)+1 {
		t.Fatalf("AvgPathLength = %v with diameter %d", p.AvgPathLength, p.Diameter)
	}
	// Identical graphs: zero structural deltas.
	u := Compare(g, g.Clone())
	if u.AssortativityDelta != 0 || u.AvgPathLengthDelta != 0 {
		t.Fatalf("Compare(g,g) deltas = %+v", u)
	}
	// Removing a bridge edge disconnects vertex 6 and shifts both.
	h := g.Clone()
	h.RemoveEdge(5, 6)
	d := Compare(g, h)
	if d.AvgPathLengthDelta == 0 {
		t.Fatal("AvgPathLengthDelta = 0 after removing a bridge")
	}
}

func TestTraceWriterEmitsAuditLog(t *testing.T) {
	g := figure1()
	var buf bytes.Buffer
	res, err := Anonymize(g, Options{L: 1, Theta: 0.5, Seed: 1, TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.Steps {
		t.Fatalf("trace has %d lines for %d steps", len(lines), res.Steps)
	}
	var last TraceStep
	for _, line := range lines {
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if last.Op != "remove" {
			t.Fatalf("EdgeRemoval emitted op %q", last.Op)
		}
		if len(last.Edges) == 0 {
			t.Fatal("trace step without edges")
		}
	}
	// The final trace line's opacity equals the result's.
	if math.Abs(last.MaxOpacity-res.MaxOpacity) > 1e-12 {
		t.Fatalf("final trace opacity %v != result %v", last.MaxOpacity, res.MaxOpacity)
	}
	// The trace is monotone non-increasing in MaxOpacity for greedy
	// removal on this instance.
	prev := 2.0
	for _, line := range lines {
		var st TraceStep
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			t.Fatal(err)
		}
		if st.MaxOpacity > prev+1e-12 {
			t.Fatalf("opacity increased: %v after %v", st.MaxOpacity, prev)
		}
		prev = st.MaxOpacity
	}
}

func TestTraceWriterFailureSurfaces(t *testing.T) {
	g := figure1()
	if _, err := Anonymize(g, Options{L: 1, Theta: 0.5, Seed: 1, TraceWriter: failingWriter{}}); err == nil {
		t.Fatal("trace write failure swallowed")
	}
}

// TestAnonymizeByHonoursTraceAndProgress: a custom classifier that
// reproduces the degree types must drive the same run as Anonymize, so
// the trace bytes and the progress reports of each supported method
// are identical, not dropped.
func TestAnonymizeByHonoursTraceAndProgress(t *testing.T) {
	g := figure1()
	byDegree := func(u, v int) string {
		a, b := g.Degree(u), g.Degree(v)
		return fmt.Sprintf("{%d,%d}", min(a, b), max(a, b))
	}
	for _, m := range []Method{EdgeRemoval, EdgeRemovalInsertion, SimulatedAnnealing} {
		run := func(anon func(Options) (*Result, error)) (string, []Progress) {
			var buf bytes.Buffer
			var progress []Progress
			opts := Options{L: 1, Theta: 0.5, Method: m, Seed: 1, TraceWriter: &buf,
				Progress: func(p Progress) { p.Elapsed = 0; progress = append(progress, p) }}
			if _, err := anon(opts); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			return buf.String(), progress
		}
		wantTrace, wantProgress := run(func(o Options) (*Result, error) { return Anonymize(g, o) })
		gotTrace, gotProgress := run(func(o Options) (*Result, error) { return AnonymizeBy(g, o, byDegree) })
		if wantTrace == "" {
			t.Fatalf("%v: Anonymize wrote no trace", m)
		}
		if gotTrace != wantTrace {
			t.Errorf("%v: AnonymizeBy trace\n%s\nwant\n%s", m, gotTrace, wantTrace)
		}
		if !slices.Equal(gotProgress, wantProgress) {
			t.Errorf("%v: AnonymizeBy progress %+v, want %+v", m, gotProgress, wantProgress)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errSink }

var errSink = fmt.Errorf("sink failure")

func TestGraphMLAndDOTFacade(t *testing.T) {
	g := figure1()
	var gml bytes.Buffer
	if err := g.WriteGraphML(&gml); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphML(&gml)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("GraphML round trip: n=%d m=%d", back.N(), back.M())
	}
	var dot bytes.Buffer
	if err := g.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph G {") {
		t.Fatalf("DOT output: %q", dot.String())
	}
}
