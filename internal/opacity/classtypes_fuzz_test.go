package opacity

import (
	"strings"
	"testing"
)

// FuzzClassTypeOrder: for a degree vector (one degree per input byte)
// or a label set (the input split at NUL bytes), the row order a report
// derives without comparing labels is strictly ascending in label, so
// it equals a sort by label and no two labels are equal; every ID
// appears once, with the label Label builds on its own; and every
// pair's type carries the label an independent rendering gives it.
func FuzzClassTypeOrder(f *testing.F) {
	f.Add([]byte{1, 2, 9, 10, 11, 99, 100, 2, 1}, false)
	f.Add([]byte{0, 0, 255}, false)
	f.Add([]byte("a,b\x00c\x00a\x00b,c"), true)
	f.Add([]byte("%\x00%25\x00{x}\x00}\x00{\x00,\x00\x00a%"), true)
	f.Fuzz(func(t *testing.T, data []byte, asLabels bool) {
		var types *ClassTypes
		var pairLabel func(u, v int) string
		n := len(data)
		if asLabels {
			labels := strings.Split(string(data), "\x00")
			n = len(labels)
			types, pairLabel = NewLabelTypes(labels), nameLabel(labels)
		} else {
			degrees := make([]int, n)
			for v, b := range data {
				degrees[v] = int(b)
			}
			types, pairLabel = NewDegreeTypes(degrees), degreeLabel(degrees)
		}
		seen := make([]bool, types.NumTypes())
		prev, rows := "", 0
		types.rows(func(id int, label string) {
			if rows > 0 && label <= prev {
				t.Fatalf("row %d label %q does not sort after %q", rows, label, prev)
			}
			if seen[id] {
				t.Fatalf("type %d listed twice", id)
			}
			if want := types.Label(id); label != want {
				t.Fatalf("type %d: row label %q, Label %q", id, label, want)
			}
			seen[id], prev = true, label
			rows++
		})
		if rows != types.NumTypes() {
			t.Fatalf("%d rows for %d types", rows, types.NumTypes())
		}
		for u := 0; u < min(n, 64); u++ {
			for v := u + 1; v < min(n, 64); v++ {
				if got, want := types.Label(types.TypeOf(u, v)), pairLabel(u, v); got != want {
					t.Fatalf("pair (%d,%d): label %q, want %q", u, v, got, want)
				}
			}
		}
	})
}
