package opacity

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// oracleReport is the report spelled out the plain way: BFS distances
// per source, a map from "P{a,b}" labels built with fmt.Sprintf, and
// sort.Strings for the row order.
func oracleReport(g *graph.Graph, degrees []int, L int) Report {
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
			a, b := degrees[u], degrees[v]
			if a > b {
				a, b = b, a
			}
			label := fmt.Sprintf("P{%d,%d}", a, b)
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

// TestNewReportFromStoreMatchesOracle: the class-pair census and the
// derived label order give exactly the oracle's report — MaxLO, N,
// every row, row order — on every backing, including overlays with
// dirty cells at depth one and two, for the graph's own degrees and for
// a degree vector whose values mix label lengths (so label order and
// numeric order disagree) with a singleton class.
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
		if n > 0 {
			synthetic[n-1] = 1000 // a singleton class: its own type has |T| = 0
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
			for dname, degrees := range map[string][]int{"own": g.Degrees(), "mixed": synthetic} {
				want := oracleReport(g, degrees, L)
				for name, st := range stores {
					if got := NewReportFromStore(degrees, st); !reflect.DeepEqual(got, want) {
						t.Errorf("n=%d L=%d %s degrees, %s store: report\n%v\nwant\n%v", n, L, dname, name, got, want)
					}
				}
			}
			paged.Close()
		}
	}
}
