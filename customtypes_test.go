package lopacity

import (
	"fmt"
	"math"
	"testing"
)

func TestOpacityByDegreeMatchesDefault(t *testing.T) {
	// Classifying by degree pair must reproduce the default report.
	g := figure1()
	classify := func(u, v int) string {
		d1, d2 := g.Degree(u), g.Degree(v)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return fmt.Sprintf("P{%d,%d}", d1, d2)
	}
	for _, L := range []int{1, 2, 3} {
		custom, err := g.OpacityBy(L, classify)
		if err != nil {
			t.Fatal(err)
		}
		std := g.Opacity(L)
		if math.Abs(custom.MaxOpacity-std.MaxOpacity) > 1e-12 {
			t.Fatalf("L=%d: MaxOpacity %v vs %v", L, custom.MaxOpacity, std.MaxOpacity)
		}
		stdByLabel := map[string]TypeOpacity{}
		for _, ty := range std.Types {
			stdByLabel[ty.Label] = ty
		}
		for _, ty := range custom.Types {
			want, ok := stdByLabel[ty.Label]
			if !ok {
				// The default report may include zero-population types
				// for degree pairs with no distinct-vertex pairs; the
				// custom one only discovers populated types.
				if ty.Total != 0 {
					t.Fatalf("L=%d: type %s missing from default report", L, ty.Label)
				}
				continue
			}
			if ty.Total != want.Total || ty.Within != want.Within {
				t.Fatalf("L=%d %s: %d/%d vs default %d/%d",
					L, ty.Label, ty.Within, ty.Total, want.Within, want.Total)
			}
		}
	}
}

func TestOpacityByPartialClassification(t *testing.T) {
	// Only pairs involving vertex 6 (the paper's Oliver) matter; all
	// other pairs are of no interest ("" type), per Definition 1's
	// "some vertex-pairs may be indifferent to us".
	g := figure1()
	rep, err := g.OpacityBy(1, func(u, v int) string {
		if u == 6 || v == 6 {
			return "oliver"
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Types) != 1 {
		t.Fatalf("types = %v, want just oliver", rep.Types)
	}
	ty := rep.Types[0]
	// Vertex 6 pairs with all 6 others; exactly one (vertex 5) is
	// adjacent.
	if ty.Total != 6 || ty.Within != 1 {
		t.Fatalf("oliver type = %+v, want 1/6", ty)
	}
	if math.Abs(rep.MaxOpacity-1.0/6) > 1e-12 {
		t.Fatalf("MaxOpacity = %v", rep.MaxOpacity)
	}
}

func TestOpacityByLabelTypes(t *testing.T) {
	// A label-based scheme: vertices 0-2 are "staff", the rest
	// "guests"; types are unordered label pairs.
	g := figure1()
	label := func(v int) string {
		if v <= 2 {
			return "staff"
		}
		return "guest"
	}
	rep, err := g.OpacityBy(1, func(u, v int) string {
		a, b := label(u), label(v)
		if a > b {
			a, b = b, a
		}
		return a + "-" + b
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Types) != 3 {
		t.Fatalf("types = %v, want 3 label pairs", rep.Types)
	}
	var totals int
	for _, ty := range rep.Types {
		totals += ty.Total
	}
	if totals != 21 { // C(7,2): every pair classified
		t.Fatalf("total pairs = %d, want 21", totals)
	}
}

func TestOpacityByValidation(t *testing.T) {
	g := figure1()
	if _, err := g.OpacityBy(0, func(u, v int) string { return "x" }); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := g.OpacityBy(math.MaxInt32, func(u, v int) string { return "x" }); err == nil {
		t.Fatal("L above the largest store threshold accepted")
	}
	if _, err := g.OpacityByLabels(math.MaxInt32, make([]string, g.N())); err == nil {
		t.Fatal("OpacityByLabels: L above the largest store threshold accepted")
	}
	if _, err := g.OpacityBy(1, nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
	asym := func(u, v int) string { return fmt.Sprintf("%d-%d", u, v) }
	if _, err := g.OpacityBy(1, asym); err == nil {
		t.Fatal("asymmetric classifier accepted")
	}
}
