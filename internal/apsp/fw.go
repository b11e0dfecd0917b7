package apsp

import "repro/internal/graph"

// unreachable marks pairs with no connecting path in the uncapped
// reference computation.
const unreachable = int(^uint(0) >> 2) // large, addition-safe

// ClassicFW runs the textbook O(n^3) Floyd-Warshall algorithm on g with
// unit edge weights and returns the full (uncapped) distance matrix, with
// -1 for unreachable pairs and 0 on the diagonal. It exists as the
// reference implementation against which the pruned engines are
// cross-validated, mirroring the paper's derivation of Algorithms 2 and 3
// from the classic algorithm.
func ClassicFW(g *graph.Graph) [][]int {
	n := g.N()
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = unreachable
			}
		}
	}
	g.EachEdge(func(u, v int) {
		d[u][v] = 1
		d[v][u] = 1
	})
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= unreachable {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if s := dik + dk[j]; s < di[j] {
					di[j] = s
				}
			}
		}
	}
	for i := range d {
		for j := range d[i] {
			if d[i][j] >= unreachable {
				d[i][j] = -1
			}
		}
	}
	return d
}

// LPrunedFW is the paper's Algorithm 2: Floyd-Warshall restricted to the
// distances the privacy model needs. A relaxation through intermediate k
// is attempted only when both legs are shorter than L and their sum does
// not exceed L; everything longer is provably irrelevant to the question
// "is d(i, j) <= L?". The result is an L-capped Store in the backing
// KindFor(L) selects. Builds use the sweep; this is an oracle for tests
// and experiments.
func LPrunedFW(g *graph.Graph, L int) MutableStore {
	n := g.N()
	m := NewStore(n, L, KindFor(L))
	if L >= 1 {
		seedEdges(g.Frozen(), m)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n-1; i++ {
			if i == k {
				continue
			}
			dik := m.Get(i, k)
			if dik >= L { // paper line 4: require A[i][k] < L
				continue
			}
			for j := i + 1; j < n; j++ {
				if j == k {
					continue
				}
				dkj := m.Get(k, j)
				if dkj >= L { // paper line 6: require A[k][j] < L
					continue
				}
				if s := dik + dkj; s <= L && s < m.Get(i, j) {
					m.Set(i, j, s)
				}
			}
		}
	}
	return m
}

// seedEdges writes distance 1 for every edge of the snapshot — the
// initialization step shared by the Floyd-Warshall style engines.
func seedEdges(c *graph.CSR, m MutableStore) {
	n := c.N()
	for u := 0; u < n; u++ {
		for _, w := range c.Neighbors(u) {
			if int(w) > u {
				m.Set(u, int(w), 1)
			}
		}
	}
}

// FromClassic converts a full reference distance matrix into an L-capped
// Store in the backing KindFor(L) selects; used by tests to compare
// engines.
func FromClassic(full [][]int, L int) MutableStore {
	n := len(full)
	m := NewStore(n, L, KindFor(L))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := full[i][j]; d >= 1 && d <= L {
				m.Set(i, j, d)
			}
		}
	}
	return m
}
