package lopacity

import (
	"slices"
	"testing"
)

// TestOpacityByLabelsNamesDoNotCollide: label names holding commas
// render escaped, so the types {"a,b", "c"} and {"a", "b,c"} get two
// labels instead of one "{a,b,c}": the six rows' labels are pairwise
// distinct and in ascending order.
func TestOpacityByLabelsNamesDoNotCollide(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	rep, err := g.OpacityByLabels(1, []string{"a,b", "c", "a", "b,c"})
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, ty := range rep.Types {
		labels = append(labels, ty.Label)
	}
	want := []string{"{a%2Cb,b%2Cc}", "{a%2Cb,c}", "{a,a%2Cb}", "{a,b%2Cc}", "{a,c}", "{b%2Cc,c}"}
	if !slices.Equal(labels, want) {
		t.Fatalf("labels %q, want %q", labels, want)
	}
}
