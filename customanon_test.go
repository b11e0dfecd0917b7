package lopacity

import (
	"fmt"
	"math"
	"testing"
)

// labelClassifier groups vertices into two communities by id parity and
// classifies pairs by the unordered community pair — a stand-in for the
// label-based adversaries the paper's Section 3 envisages.
func labelClassifier(u, v int) string {
	a, b := u%2, v%2
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%d-%d", a, b)
}

func TestAnonymizeByReachesCustomTarget(t *testing.T) {
	g := denseTestGraph()
	before, err := g.OpacityBy(1, labelClassifier)
	if err != nil {
		t.Fatal(err)
	}
	if before.MaxOpacity <= 0.4 {
		t.Skipf("test graph already satisfies the target (%v)", before.MaxOpacity)
	}
	res, err := AnonymizeBy(g, Options{L: 1, Theta: 0.4, Seed: 1}, labelClassifier)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("unsatisfied, maxOpacity=%v", res.MaxOpacity)
	}
	// Independent verification: recompute under the SAME classifier
	// (types frozen against the original vertex ids, which anonymize
	// never renumbers).
	after, err := res.Graph.OpacityBy(1, labelClassifier)
	if err != nil {
		t.Fatal(err)
	}
	if after.MaxOpacity > 0.4 {
		t.Fatalf("published graph has custom-type opacity %v > 0.4", after.MaxOpacity)
	}
	if after.MaxOpacity != res.MaxOpacity {
		t.Fatalf("reported %v != recomputed %v", res.MaxOpacity, after.MaxOpacity)
	}
}

func TestAnonymizeByMethods(t *testing.T) {
	g := denseTestGraph()
	for _, m := range []Method{EdgeRemoval, EdgeRemovalInsertion, SimulatedAnnealing} {
		res, err := AnonymizeBy(g, Options{L: 1, Theta: 0.5, Method: m, Seed: 2}, labelClassifier)
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if res.Graph == nil {
			t.Errorf("%v: nil graph", m)
		}
	}
}

func TestAnonymizeByRejectsBaselinesAndBadInput(t *testing.T) {
	g := denseTestGraph()
	if _, err := AnonymizeBy(g, Options{L: 1, Theta: 0.5, Method: GADEDMax}, labelClassifier); err == nil {
		t.Fatal("GADED-Max accepted a classifier")
	}
	if _, err := AnonymizeBy(nil, Options{L: 1, Theta: 0.5}, labelClassifier); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := AnonymizeBy(g, Options{L: 1, Theta: 0.5}, nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
	asym := func(u, v int) string { return fmt.Sprintf("%d<%d", u, v) }
	if _, err := AnonymizeBy(g, Options{L: 1, Theta: 0.5}, asym); err == nil {
		t.Fatal("asymmetric classifier accepted")
	}
	if _, err := AnonymizeBy(g, Options{L: 1, Theta: 1.2}, labelClassifier); err == nil {
		t.Fatal("theta=1.2 accepted")
	}
	for _, m := range []Method{EdgeRemoval, SimulatedAnnealing} {
		if _, err := AnonymizeBy(g, Options{L: math.MaxInt32, Theta: 0.5, Method: m}, labelClassifier); err == nil {
			t.Fatalf("%v: L above the largest store threshold accepted", m)
		}
	}
}

// Pairs the classifier maps to "" are of no interest (Definition 1) and
// must never constrain the run: with every pair unclassified the graph
// is vacuously opaque at any theta.
func TestAnonymizeByIgnoresUnclassifiedPairs(t *testing.T) {
	g := denseTestGraph()
	none := func(u, v int) string { return "" }
	res, err := AnonymizeBy(g, Options{L: 1, Theta: 0, Seed: 1}, none)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied || len(res.Removed) != 0 {
		t.Fatalf("vacuous instance required edits: satisfied=%v removed=%d", res.Satisfied, len(res.Removed))
	}
}

// Degree-pair classification through AnonymizeBy must agree with the
// default degree-typed Anonymize run (same greedy decisions, since the
// type system is identical).
func TestAnonymizeByDegreeClassifierMatchesDefault(t *testing.T) {
	g := denseTestGraph()
	byDegree := func(u, v int) string {
		a, b := g.Degree(u), g.Degree(v)
		if a > b {
			a, b = b, a
		}
		return fmt.Sprintf("{%d,%d}", a, b)
	}
	custom, err := AnonymizeBy(g, Options{L: 1, Theta: 0.5, Seed: 7}, byDegree)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Anonymize(g, Options{L: 1, Theta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if custom.MaxOpacity != def.MaxOpacity || len(custom.Removed) != len(def.Removed) {
		t.Fatalf("custom degree classifier diverged: maxLO %v vs %v, removed %d vs %d",
			custom.MaxOpacity, def.MaxOpacity, len(custom.Removed), len(def.Removed))
	}
}

func TestAnonymizeByLabels(t *testing.T) {
	g := denseTestGraph()
	labels := []string{"eng", "eng", "eng", "eng", "sales", "sales", "sales", "sales"}
	before, err := g.OpacityByLabels(1, labels)
	if err != nil {
		t.Fatal(err)
	}
	if before.MaxOpacity <= 0.4 {
		t.Skipf("already satisfied (%v)", before.MaxOpacity)
	}
	res, err := AnonymizeByLabels(g, Options{L: 1, Theta: 0.4, Seed: 1}, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("unsatisfied: %v", res.MaxOpacity)
	}
	after, err := res.Graph.OpacityByLabels(1, labels)
	if err != nil {
		t.Fatal(err)
	}
	if after.MaxOpacity != res.MaxOpacity || after.MaxOpacity > 0.4 {
		t.Fatalf("recomputed %v, reported %v", after.MaxOpacity, res.MaxOpacity)
	}
}

// The label path and the classifier path implement the same model, so
// for a label-derived classifier they must make identical greedy
// decisions.
func TestAnonymizeByLabelsMatchesClassifier(t *testing.T) {
	g := denseTestGraph()
	labels := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	viaLabels, err := AnonymizeByLabels(g, Options{L: 1, Theta: 0.5, Seed: 9}, labels)
	if err != nil {
		t.Fatal(err)
	}
	classify := func(u, v int) string {
		a, b := labels[u], labels[v]
		if a > b {
			a, b = b, a
		}
		return "{" + a + "," + b + "}"
	}
	viaClassifier, err := AnonymizeBy(g, Options{L: 1, Theta: 0.5, Seed: 9}, classify)
	if err != nil {
		t.Fatal(err)
	}
	if viaLabels.MaxOpacity != viaClassifier.MaxOpacity ||
		len(viaLabels.Removed) != len(viaClassifier.Removed) {
		t.Fatalf("paths diverge: %v/%d vs %v/%d",
			viaLabels.MaxOpacity, len(viaLabels.Removed),
			viaClassifier.MaxOpacity, len(viaClassifier.Removed))
	}
}

func TestAnonymizeByLabelsValidation(t *testing.T) {
	g := denseTestGraph()
	if _, err := AnonymizeByLabels(g, Options{L: 1, Theta: 0.5}, []string{"a"}); err == nil {
		t.Fatal("wrong label count accepted")
	}
	bad := make([]string, g.N())
	for i := range bad {
		bad[i] = "x"
	}
	bad[3] = ""
	if _, err := AnonymizeByLabels(g, Options{L: 1, Theta: 0.5}, bad); err == nil {
		t.Fatal("empty label accepted")
	}
	if _, err := AnonymizeByLabels(nil, Options{L: 1, Theta: 0.5}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	ok := make([]string, g.N())
	for i := range ok {
		ok[i] = "x"
	}
	if _, err := AnonymizeByLabels(g, Options{L: 1, Theta: 0.5, Method: GADES}, ok); err == nil {
		t.Fatal("baseline method accepted label types")
	}
	if _, err := AnonymizeByLabels(g, Options{L: math.MaxInt32, Theta: 0.5}, ok); err == nil {
		t.Fatal("L above the largest store threshold accepted")
	}
}
