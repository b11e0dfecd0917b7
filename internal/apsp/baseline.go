package apsp

import "repro/internal/graph"

// BoundedAPSPMapBaseline is the pre-CSR bounded-BFS engine, retained as
// the measured baseline of the perf trajectory (BENCH_*.json): one BFS
// per source over the mutable Graph, scanning all n candidates per
// source and resetting the full distance row per source — the costs the
// CSR sweep's ball-sized emission and touched-only reset remove. It
// produces bit-for-bit the same store as every other engine (the
// cross-validation tests include it).
//
// The name records its origin: when BENCH_1–3 were taken the Graph
// walked here was map-adjacency sets, so those files' build_map_baseline
// rows include hash-map iteration. The Graph now holds sorted int32
// neighbor lists, so later rows measure only the full-row costs.
func BoundedAPSPMapBaseline(g *graph.Graph, L int, k Kind) MutableStore {
	n := g.N()
	m := newStoreAuto(n, L, k)
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for i := range dist {
		dist[i] = -1
	}
	for src := 0; src < n; src++ {
		g.BoundedBFSInto(src, L, dist, queue)
		for j := src + 1; j < n; j++ {
			if d := dist[j]; d > 0 {
				m.Set(src, j, d)
			}
		}
		for j := 0; j < n; j++ {
			dist[j] = -1
		}
	}
	return m
}
