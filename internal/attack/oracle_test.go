package attack

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/apsp"
	"repro/internal/fixture"
	"repro/internal/graph"
)

// bruteAdversary answers the adversary's queries by counting candidate
// pairs over full BFS distance rows of the published graph: an oracle
// that shares no code with package opacity's census.
type bruteAdversary struct {
	degrees []int
	dist    [][]int // unbounded BFS rows, -1 for unreachable
}

func newBrute(published *graph.Graph, degrees []int) bruteAdversary {
	b := bruteAdversary{degrees: degrees}
	for u := range published.N() {
		b.dist = append(b.dist, published.BFSDistances(u))
	}
	return b
}

func (b bruteAdversary) linkage(d1, d2, L int) Inference {
	inf := Inference{DegreeA: d1, DegreeB: d2, L: L}
	for u := range b.dist {
		for v := u + 1; v < len(b.dist); v++ {
			du, dv := b.degrees[u], b.degrees[v]
			if (du != d1 || dv != d2) && (du != d2 || dv != d1) {
				continue
			}
			inf.Total++
			if d := b.dist[u][v]; d >= 0 && d <= L {
				inf.Within++
			}
		}
	}
	if inf.Total > 0 {
		inf.Confidence = float64(inf.Within) / float64(inf.Total)
	}
	return inf
}

// pairs lists the inference of every degree pair d1 <= d2 with at least
// one candidate pair, ascending.
func (b bruteAdversary) pairs(L int) []Inference {
	distinct := slices.Compact(slices.Sorted(slices.Values(b.degrees)))
	var out []Inference
	for i, d1 := range distinct {
		for _, d2 := range distinct[i:] {
			if inf := b.linkage(d1, d2, L); inf.Total > 0 {
				out = append(out, inf)
			}
		}
	}
	return out
}

func (b bruteAdversary) maxConfidence(L int) Inference {
	best := Inference{L: L}
	for _, inf := range b.pairs(L) {
		if inf.Confidence > best.Confidence {
			best = inf
		}
	}
	return best
}

func (b bruteAdversary) vulnerable(L int, theta float64) []Inference {
	var out []Inference
	for _, inf := range b.pairs(L) {
		if inf.Confidence > theta {
			out = append(out, inf)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}

// TestAdversaryMatchesBruteForce compares every Inference the adversary
// returns with the brute-force oracle: LinkageConfidence for every
// ordered pair of present degrees and for an absent degree,
// MaxConfidence, and VulnerablePairs at several thresholds, at L from 0
// past n-1, without a store (one adversary across every L) and with
// stores capped at L and at L+1.
func TestAdversaryMatchesBruteForce(t *testing.T) {
	type instance struct {
		name      string
		published *graph.Graph
		degrees   []int
	}
	instances := []instance{
		{"figure1", fixture.Figure1(), fixture.Figure1Degrees()},
		{"figure2a", figure2a(), figure2a().Degrees()},
		{"figure2b", figure2b(), figure2b().Degrees()},
		{"figure2c", figure2c(), figure2c().Degrees()},
		{"edgeless", graph.New(6), make([]int, 6)},
		{"single", graph.New(1), []int{0}},
	}
	rng := rand.New(rand.NewSource(11))
	for i := range 6 {
		n := 6 + rng.Intn(14)
		g := graph.New(n)
		for range 2 * n {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		// The published graph loses some edges; the knowledge stays the
		// original degrees, as after an anonymization.
		published := g.Clone()
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				published.RemoveEdge(e.U, e.V)
			}
		}
		instances = append(instances, instance{fmt.Sprintf("random%d", i), published, g.Degrees()})
	}

	const absent = 1 << 20
	check := func(t *testing.T, a *Adversary, b bruteAdversary, L int) {
		t.Helper()
		degs := append(slices.Compact(slices.Sorted(slices.Values(b.degrees))), absent)
		for _, d1 := range degs {
			for _, d2 := range degs {
				if got, want := a.LinkageConfidence(d1, d2, L), b.linkage(d1, d2, L); got != want {
					t.Fatalf("L=%d LinkageConfidence(%d, %d) = %+v, want %+v", L, d1, d2, got, want)
				}
			}
		}
		if got, want := a.MaxConfidence(L), b.maxConfidence(L); got != want {
			t.Fatalf("L=%d MaxConfidence = %+v, want %+v", L, got, want)
		}
		for _, theta := range []float64{-0.1, 0, 0.5, 1} {
			if got, want := a.VulnerablePairs(L, theta), b.vulnerable(L, theta); !slices.Equal(got, want) {
				t.Fatalf("L=%d VulnerablePairs(%v) = %+v, want %+v", L, theta, got, want)
			}
		}
	}
	for _, in := range instances {
		t.Run(in.name, func(t *testing.T) {
			b := newBrute(in.published, in.degrees)
			n := in.published.N()
			shared, err := New(in.published, in.degrees)
			if err != nil {
				t.Fatal(err)
			}
			for _, L := range []int{0, 1, 2, 3, n - 1, n + 3} {
				check(t, shared, b, L)
				for _, capL := range []int{L, L + 1} {
					if capL < 0 {
						continue
					}
					a, err := New(in.published, in.degrees)
					if err != nil {
						t.Fatal(err)
					}
					if err := a.UseStore(apsp.Build(in.published, capL, apsp.BuildOptions{})); err != nil {
						t.Fatal(err)
					}
					check(t, a, b, L)
				}
			}
		})
	}
}
