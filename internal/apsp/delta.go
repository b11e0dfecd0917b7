package apsp

import "repro/internal/graph"

// InsertionDelta reports, without mutating anything, every unordered pair
// whose L-capped distance would decrease if the edge {u, v} were inserted
// into the graph that matrix m currently describes. For each such pair it
// calls visit(x, y, oldD, newD) with x < y, in ascending (x, y) order.
//
// A new shortest path created by the edge {u, v} must cross it, so
//
//	d'(x, y) = min(d(x, y), d(x, u) + 1 + d(v, y), d(x, v) + 1 + d(u, y)),
//
// and legs longer than L-1 (stored as Far or L) cannot contribute a path
// within the cap, so the capped matrix suffices as input. The same bound
// makes the kernel ball-local: a pair can improve only if both endpoints
// lie within L-1 of u or of v.
func InsertionDelta(m Store, u, v int, visit func(x, y, oldD, newD int)) {
	InsertionDeltaScratch(m, u, v, nil, visit)
}

// InsertionDeltaScratch is InsertionDelta with caller-provided scratch
// buffers, for the greedy sweeps that evaluate every absent edge at
// every step: with a reused Scratch the scan allocates nothing.
//
// One O(n) pass reads d(x, u) and d(x, v) and collects, in ascending
// order, the near set {x : d(x, u) <= L-1 or d(x, v) <= L-1}. Every
// improving pair has cand = min(d(x,u)+1+d(v,y), d(x,v)+1+d(u,y)) <= L,
// which puts both x and y in the near set, so the pair loop runs over
// near × near only — O(n + |near|²) per candidate instead of O(n²) —
// and visits pairs in the same ascending order a full scan would.
func InsertionDeltaScratch(m Store, u, v int, scratch *Scratch, visit func(x, y, oldD, newD int)) {
	n := m.N()
	L := m.L()
	far := m.Far()
	if scratch == nil {
		scratch = NewScratch(n)
	}
	du := scratch.du[:n] // capped d(x, u), valid on near
	dv := scratch.dv[:n] // capped d(x, v), valid on near
	near := scratch.near[:0]
	for x := 0; x < n; x++ {
		a, b := 0, 0
		if x != u {
			a = m.Get(x, u)
		}
		if x != v {
			b = m.Get(x, v)
		}
		if a <= L-1 || b <= L-1 {
			du[x], dv[x] = a, b
			near = append(near, x)
		}
	}
	scratch.near = near
	for i, x := range near {
		// Shortest leg from x to the new edge; +1 crosses the edge. The
		// du/dv arrays carry 0 at the endpoints themselves, so the two
		// candidate formulas are uniform over all pairs, including pairs
		// touching u or v and the pair {u, v} itself.
		viaU := du[x] + 1 // x -> u, cross to v, then v -> y
		viaV := dv[x] + 1 // x -> v, cross to u, then u -> y
		for _, y := range near[i+1:] {
			cand := far
			if c := viaU + dv[y]; c < cand {
				cand = c
			}
			if c := viaV + du[y]; c < cand {
				cand = c
			}
			if cand > L {
				continue
			}
			if old := m.Get(x, y); cand < old {
				visit(x, y, old, cand)
			}
		}
	}
}

// RemovalDelta reports, without mutating anything, every unordered
// pair whose L-capped distance changes when the edge {u, v} is removed.
// g must be the graph WITH the edge still present and consistent with
// m; the edge is never actually removed — recomputation runs bounded
// BFS with the edge masked out (BoundedBFSIntoSkip), so g is only ever
// read. That read-only discipline lets the anonymization heuristics'
// parallel candidate scans share one graph across workers. visit is
// called once per changed pair with x < y (oldD < newD always, since
// removal can only lengthen distances); the call order is a
// deterministic function of g and m.
//
// The kernel is ball-local. A pair (x, y) can lengthen only if the
// edge lay on its every shortest path x…u–v…y of length <= L, which
// forces d(x,u) <= L-1 with d(x,v) = d(x,u)+1, and the mirror for y.
// So x lies in the crossing set S_u = {x : d(x,u) <= L-1,
// d(x,v) = d(x,u)+1} and y in S_v (or the reverse). Because
// |d(x,u) - d(x,v)| <= 1 while the edge is present, two bounded BFS
// balls of radius L-1 around u and v yield both sets without touching
// the store. The edge-masked BFS then runs from the smaller set only,
// and its distances are compared with the store over the other set
// only: O(ball + |S_small|·(ball + |S_other|)) per candidate, with no
// O(n) term.
//
// scratch may be nil; pass a Scratch to amortize allocations across the
// many candidate evaluations of a greedy sweep — with one, the kernel
// allocates nothing.
func RemovalDelta(g *graph.Graph, m Store, u, v int, scratch *Scratch, visit func(x, y, oldD, newD int)) {
	if !g.HasEdge(u, v) {
		panic("apsp: RemovalDelta on absent edge")
	}
	L := m.L()
	far := m.Far()
	if scratch == nil {
		scratch = NewScratch(m.N())
	}
	from, to := crossingSets(g, L, u, v, scratch)
	if len(to) < len(from) {
		from, to = to, from
	}
	dist := scratch.dist
	for _, x := range from {
		reached := g.BoundedBFSIntoSkip(x, L, dist, scratch.queue, u, v)
		for _, y := range to {
			newD := dist[y]
			if newD < 0 {
				newD = far
			}
			if old := m.Get(x, y); newD != old {
				if x < y {
					visit(x, y, old, newD)
				} else {
					visit(y, x, old, newD)
				}
			}
		}
		// Touched-only reset: the queue holds exactly the vertices the
		// BFS wrote.
		for _, w := range scratch.queue[:reached+1] {
			dist[w] = -1
		}
	}
}

// crossingSets returns S_u = {x : d(x,u) <= L-1, d(x,v) = d(x,u)+1}
// and S_v = {x : d(x,v) <= L-1, d(x,u) = d(x,v)+1} for the edge {u, v}
// of g, each in BFS order. Every pair whose distance can grow when the
// edge is removed has one endpoint in each set; the sets are disjoint,
// and u ∈ S_u, v ∈ S_v. Only the two radius-(L-1) balls are visited.
// The returned slices alias scratch and are valid until its next use.
func crossingSets(g *graph.Graph, L, u, v int, sc *Scratch) (sU, sV []int) {
	reachedU := g.BoundedBFSInto(u, L-1, sc.distU, sc.queueU)
	reachedV := g.BoundedBFSInto(v, L-1, sc.distV, sc.queueV)
	ballU := sc.queueU[:reachedU+1]
	ballV := sc.queueV[:reachedV+1]
	// With the edge present |d(x,u) - d(x,v)| <= 1, so x in u's ball
	// crosses toward v exactly when v's ball does not place it at
	// distance <= d(x,u) — outside that ball d(x,v) >= L > d(x,u).
	sU, sV = sc.sU[:0], sc.sV[:0]
	for _, x := range ballU {
		if dv := sc.distV[x]; dv < 0 || dv > sc.distU[x] {
			sU = append(sU, x)
		}
	}
	for _, x := range ballV {
		if du := sc.distU[x]; du < 0 || du > sc.distV[x] {
			sV = append(sV, x)
		}
	}
	for _, x := range ballU {
		sc.distU[x] = -1
	}
	for _, x := range ballV {
		sc.distV[x] = -1
	}
	sc.sU, sc.sV = sU, sV
	return sU, sV
}

// ApplyInsertion mutates m to reflect inserting the edge {u, v} into the
// graph it describes (the graph itself is not touched).
func ApplyInsertion(m MutableStore, u, v int) {
	InsertionDelta(m, u, v, func(x, y, _, newD int) {
		m.Set(x, y, newD)
	})
}

// ApplyRemoval mutates m to reflect removing the edge {u, v}. g must
// still contain the edge; it is only read, never mutated.
func ApplyRemoval(g *graph.Graph, m MutableStore, u, v int, scratch *Scratch) {
	type upd struct{ x, y, d int }
	var ups []upd
	RemovalDelta(g, m, u, v, scratch, func(x, y, _, newD int) {
		ups = append(ups, upd{x, y, newD})
	})
	for _, p := range ups {
		m.Set(p.x, p.y, p.d)
	}
}

// Scratch holds reusable buffers for the delta kernels so that the
// greedy sweeps, which evaluate every candidate edge at every step, do
// not allocate per candidate. All buffers are O(n); the kernels only
// read the graph and store, so each concurrent evaluator needs its own
// Scratch but can share the graph and store.
type Scratch struct {
	// Distance rows kept all -1 between calls (touched-only reset):
	// dist for the edge-masked BFS, distU/distV for the balls around
	// the removed edge's endpoints.
	dist, distU, distV []int
	// BFS queues, capacity n so each holds its visit order on return.
	queue, queueU, queueV []int
	sU, sV                []int // crossing sets of the removal kernel
	du, dv                []int // capped d(x, u), d(x, v) of the insertion kernel
	near                  []int // the insertion kernel's near set
}

// NewScratch returns buffers sized for an n-vertex graph.
func NewScratch(n int) *Scratch {
	unset := func() []int {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		return d
	}
	return &Scratch{
		dist:   unset(),
		distU:  unset(),
		distV:  unset(),
		queue:  make([]int, 0, n),
		queueU: make([]int, 0, n),
		queueV: make([]int, 0, n),
		sU:     make([]int, 0, n),
		sV:     make([]int, 0, n),
		du:     make([]int, n),
		dv:     make([]int, n),
		near:   make([]int, 0, n),
	}
}
