package opacity

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// oracleReport is the report spelled out the plain way: BFS distances
// per source, a map from the label pairLabel gives each pair, and
// sort.Strings for the row order.
func oracleReport(g *graph.Graph, pairLabel func(u, v int) string, L int) Report {
	n := g.N()
	total, within := map[string]int{}, map[string]int{}
	dist := make([]int, n)
	for u := 0; u < n; u++ {
		for v := range dist {
			dist[v] = -1
		}
		dist[u] = 0
		queue := []int{u}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range g.Neighbors(x) {
				if dist[y] < 0 {
					dist[y] = dist[x] + 1
					queue = append(queue, y)
				}
			}
		}
		for v := u + 1; v < n; v++ {
			label := pairLabel(u, v)
			total[label]++
			if dist[v] >= 0 && dist[v] <= L {
				within[label]++
			}
		}
	}
	labels := make([]string, 0, len(total))
	for label := range total {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	rep := Report{L: L}
	for _, label := range labels {
		lo := float64(within[label]) / float64(total[label])
		rep.ByType = append(rep.ByType, TypeReport{Label: label, Total: total[label], Within: within[label], Opacity: lo})
		switch {
		case lo > rep.MaxLO:
			rep.MaxLO, rep.N = lo, 1
		case lo == rep.MaxLO:
			rep.N++
		}
	}
	return rep
}

// degreeLabel names a pair "P{a,b}" by its degrees a <= b, built with
// fmt.Sprintf.
func degreeLabel(degrees []int) func(u, v int) string {
	return func(u, v int) string {
		a, b := degrees[u], degrees[v]
		if a > b {
			a, b = b, a
		}
		return fmt.Sprintf("P{%d,%d}", a, b)
	}
}

// escapeName renders a label name byte by byte, writing '%', ',', '{'
// and '}' as '%' and their two-digit upper-case hex code.
func escapeName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if c := name[i]; strings.IndexByte("%,{}", c) >= 0 {
			fmt.Fprintf(&b, "%%%02X", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// nameLabel names a pair "{a,b}" by its escaped label names a <= b.
func nameLabel(labels []string) func(u, v int) string {
	return func(u, v int) string {
		a, b := escapeName(labels[u]), escapeName(labels[v])
		if a > b {
			a, b = b, a
		}
		return "{" + a + "," + b + "}"
	}
}

// oracleGraph is a sparse random graph with isolated vertices, plus
// hubs whose degrees span one to three digits, so degree classes mix
// label lengths and include singletons.
func oracleGraph(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for e := 0; e < n/2; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v)
		}
	}
	for h, reach := range []int{9, 12, 110} {
		if h >= n {
			break
		}
		for _, v := range rng.Perm(n)[:min(reach, n)] {
			if v != h {
				g.AddEdge(h, v)
			}
		}
	}
	return g
}

// edit returns a copy of g with a few edges added and removed.
func edit(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	h := g.Clone()
	n := h.N()
	if n < 2 {
		return h
	}
	for e := 0; e < 1+n/20; e++ {
		if es := h.Edges(); len(es) > 0 {
			x := es[rng.Intn(len(es))]
			h.RemoveEdge(x.U, x.V)
		}
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			h.AddEdge(u, v)
		}
	}
	return h
}

// overlayOnto writes every cell of want into an overlay over base, so
// the overlay's dirty cells are exactly where the two stores differ.
func overlayOnto(base, want apsp.Store) *apsp.Overlay {
	o := apsp.NewOverlay(base)
	want.EachPair(func(i, j, d int) { o.Set(i, j, d) })
	return o
}

// oracleNames are label names mixing the characters a rendered name
// escapes, so that unescaped they would collide ("a,b" and "c" against
// "a" and "b,c") and escaped they sort apart from their raw order.
var oracleNames = []string{"a", "a,b", "b,c", "c", "{x}", "}", "{", ",", "%", "%2C", "a%", "0", ""}

// TestNewReportFromStoreMatchesOracle: the class-pair census and the
// derived label order give exactly the oracle's report — MaxLO, N,
// every row, row order — on every backing, including overlays with
// dirty cells at depth one and two, for the graph's own degrees, for a
// degree vector whose values mix label lengths (so label order and
// numeric order disagree) with a singleton class, and for label types
// whose names hold ',', '{', '}' and '%', with a singleton label.
func TestNewReportFromStoreMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	mixed := []int{0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 110}
	for _, n := range []int{0, 1, 2, 64, 65, 300} {
		g := oracleGraph(n, rng)
		g1 := edit(g, rng)
		g0 := edit(g1, rng)
		synthetic := make([]int, n)
		for v := range synthetic {
			synthetic[v] = mixed[rng.Intn(len(mixed))]
		}
		labels := make([]string, n)
		for v := range labels {
			labels[v] = oracleNames[rng.Intn(len(oracleNames))]
		}
		if n > 0 {
			synthetic[n-1] = 1000 // a singleton class: its own type has |T| = 0
			labels[n-1] = "only,{one}"
		}
		for _, L := range []int{1, 2, 3, 5} {
			compact := apsp.Build(g, L, apsp.BuildOptions{})
			packed := apsp.NewStore(n, L, apsp.KindPacked)
			apsp.Copy(packed, compact)
			path := filepath.Join(dir, fmt.Sprintf("n%d.l%d.store", n, L))
			data, err := apsp.MarshalStore(compact)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			paged, err := apsp.OpenPagedStore(path, apsp.NewPageCache(1<<16))
			if err != nil {
				t.Fatal(err)
			}
			s1 := apsp.Build(g1, L, apsp.BuildOptions{})
			deep := overlayOnto(overlayOnto(apsp.Build(g0, L, apsp.BuildOptions{}), s1), compact)
			shallow := overlayOnto(s1, compact)
			if n >= 64 && (shallow.Dirty() == 0 || deep.Dirty() == 0 || deep.Base().(*apsp.Overlay).Dirty() == 0) {
				t.Fatalf("n=%d L=%d: the edits left an overlay without dirty cells", n, L)
			}
			stores := map[string]apsp.Store{
				"compact":  compact,
				"packed":   packed,
				"paged":    paged,
				"overlay":  shallow,
				"overlay2": deep,
			}
			cases := []struct {
				name      string
				report    func(apsp.Store) Report
				pairLabel func(u, v int) string
			}{
				{"own degrees", func(st apsp.Store) Report { return NewReportFromStore(g.Degrees(), st) }, degreeLabel(g.Degrees())},
				{"mixed degrees", func(st apsp.Store) Report { return NewReportFromStore(synthetic, st) }, degreeLabel(synthetic)},
				{"labels", func(st apsp.Store) Report { return NewTypeReport(NewLabelTypes(labels), st) }, nameLabel(labels)},
			}
			for _, c := range cases {
				want := oracleReport(g, c.pairLabel, L)
				for name, st := range stores {
					if got := c.report(st); !reflect.DeepEqual(got, want) {
						t.Errorf("n=%d L=%d %s, %s store: report\n%v\nwant\n%v", n, L, c.name, name, got, want)
					}
				}
			}
			paged.Close()
		}
	}
}
