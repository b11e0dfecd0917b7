package apsp

import "repro/internal/graph"

// PointerFW is the paper's Algorithm 3: the L-pruned Floyd-Warshall that,
// instead of scanning whole rows and columns for cells shorter than L,
// rides linked lists threading exactly those cells, amending the lists
// whenever a relaxation first drops a cell below L.
//
// Concretely, for every vertex k we maintain the list low[k] of partners
// p with current capped distance d(k, p) < L. Iteration k of the outer
// loop joins low[k] with itself — every pair (i, j) of sub-L partners of
// k is a candidate relaxation i-k-j — which is precisely the set of cells
// Algorithm 3's out/in pointer walk over column and row k visits. Because
// distances only ever decrease and a cell is appended exactly when it
// first crosses below L, the append-only lists never hold duplicates.
// Like LPrunedFW it is an oracle; builds use the sweep.
func PointerFW(g *graph.Graph, L int) MutableStore {
	n := g.N()
	m := NewStore(n, L, KindFor(L))
	low := make([][]int, n)
	c := g.Frozen()
	if L >= 1 {
		seedEdges(c, m)
	}
	// Pre-processing step of Algorithm 3: thread the initial sub-L cells
	// (edges, when L > 1) into the lists. The CSR windows are already
	// sorted, so the lists start in the same deterministic order the
	// per-vertex Neighbors sort used to provide — without allocating a
	// sorted copy per vertex.
	if L > 1 {
		for v := 0; v < n; v++ {
			nbrs := c.Neighbors(v)
			lv := make([]int, len(nbrs))
			for i, w := range nbrs {
				lv[i] = int(w)
			}
			low[v] = lv
		}
	}
	for k := 0; k < n; k++ {
		partners := low[k]
		for a := 0; a < len(partners); a++ {
			i := partners[a]
			dik := m.Get(i, k)
			for b := a + 1; b < len(partners); b++ {
				j := partners[b]
				if i == j {
					continue
				}
				dkj := m.Get(k, j)
				s := dik + dkj
				if s > L {
					continue
				}
				old := m.Get(i, j)
				if s < old {
					// Paper lines 13-16: amend list connections when the
					// cell first drops below L, then write the new value.
					if s < L && old >= L {
						low[i] = append(low[i], j)
						low[j] = append(low[j], i)
					}
					m.Set(i, j, s)
				}
			}
		}
	}
	return m
}
