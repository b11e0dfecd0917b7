package opacity

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/apsp"
)

// Tracker maintains, for every vertex-pair type, the count of pairs at
// geodesic distance <= L (the paper's L matrix, Figure 5a) and derives
// per-type opacities and the graph maximum (Figure 5c and Algorithm 1).
//
// Alongside the counts it keeps a max-opacity index: the types grouped
// by their distinct current LO value, groups in descending order, each
// with its population (the paper's N). A type's current LO is the key
// of the group it belongs to; types with no pairs (|T| = 0) belong to
// no group. Update moves one type between groups, Evaluate reads the
// top group, and EvaluateWith touches only the types a candidate move
// changes — so the greedy heuristics' candidate scans cost
// O(changed types) per candidate instead of O(#types).
type Tracker struct {
	types  TypeAssigner
	l      int
	counts []int
	totals []int     // |T| per type, cached from the assigner
	lo     []float64 // current LO per type; NaN when |T| = 0
	groups []loGroup // distinct current LO values, descending
}

// loGroup is one distinct LO value of the index and the number of
// types currently at it.
type loGroup struct {
	lo  float64
	pop int
}

// NewTracker builds a tracker from an L-capped distance store, counting
// every typed pair within L (the loop of Algorithm 1, lines 3-6). Any
// Store backing works; the tracker keeps no reference to the store
// afterward, so trackers built from a compact and a packed store of the
// same graph are identical. Class types (degrees, labels) are counted
// per class pair straight off the store's rows
// (apsp.CountWithinByClass); any other assigner is asked for the type
// of each pair within L.
func NewTracker(types TypeAssigner, m apsp.Store) *Tracker {
	k := types.NumTypes()
	t := &Tracker{
		types:  types,
		l:      m.L(),
		counts: make([]int, k),
		totals: make([]int, k),
		lo:     make([]float64, k),
	}
	if c, ok := types.(*ClassTypes); ok {
		c.countWithin(m, t.counts)
	} else {
		l := m.L()
		m.EachPair(func(i, j, d int) {
			if d <= l {
				if id := types.TypeOf(i, j); id >= 0 {
					t.counts[id]++
				}
			}
		})
	}
	for id := range t.counts {
		t.totals[id] = types.Total(id)
		if t.totals[id] == 0 {
			t.lo[id] = math.NaN() // equal to no group key
			continue
		}
		t.lo[id] = t.ratio(id, t.counts[id])
		t.groups = append(t.groups, loGroup{lo: t.lo[id], pop: 1})
	}
	slices.SortFunc(t.groups, func(a, b loGroup) int { return cmp.Compare(b.lo, a.lo) })
	merged := t.groups[:0]
	for _, g := range t.groups {
		if n := len(merged); n > 0 && merged[n-1].lo == g.lo {
			merged[n-1].pop++
		} else {
			merged = append(merged, g)
		}
	}
	t.groups = merged
	return t
}

// ratio is LO for type id at the given count — the one float expression
// every opacity in this package is computed with, so equal ratios land
// in one index group exactly when Algorithm 1's scan would tie them.
func (t *Tracker) ratio(id, count int) float64 {
	return float64(count) / float64(t.totals[id])
}

// L returns the distance threshold.
func (t *Tracker) L() int { return t.l }

// Types returns the underlying type assigner.
func (t *Tracker) Types() TypeAssigner { return t.types }

// Count returns the current <=L pair count of the given type.
func (t *Tracker) Count(id int) int { return t.counts[id] }

// Counts returns a copy of the per-type <=L counts (the paper's L
// matrix in dense-ID form).
func (t *Tracker) Counts() []int { return append([]int(nil), t.counts...) }

// OpacityOf returns LO_G(T) for a type ID (Definition 2). Types with an
// empty pair population have opacity 0 by convention (nothing can be
// disclosed about a type with no pairs).
func (t *Tracker) OpacityOf(id int) float64 {
	if t.totals[id] == 0 {
		return 0
	}
	return t.lo[id]
}

// crossing returns the type of a pair change that moves the pair across
// the <=L threshold, with +1 when it enters and -1 when it leaves; id is
// -1 when the change crosses nothing or the pair has no type.
func (t *Tracker) crossing(x, y, oldD, newD int) (id, step int) {
	wasIn := oldD <= t.l
	isIn := newD <= t.l
	if wasIn == isIn {
		return -1, 0
	}
	if id = t.types.TypeOf(x, y); id < 0 {
		return -1, 0
	}
	if isIn {
		return id, 1
	}
	return id, -1
}

// Update adjusts the counts for one pair whose capped distance changed
// from oldD to newD, and moves the pair's type to the index group of its
// new LO. Distances beyond L (or Far) may be passed as any value
// exceeding L. Update is the index's only mutation entry point.
func (t *Tracker) Update(x, y, oldD, newD int) {
	id, step := t.crossing(x, y, oldD, newD)
	if id < 0 {
		return
	}
	t.counts[id] += step
	if t.totals[id] == 0 {
		return
	}
	t.leave(t.lo[id])
	t.lo[id] = t.ratio(id, t.counts[id])
	t.join(t.lo[id])
}

// find returns the position of the group keyed lo in the descending
// group list (or where it would be inserted) and whether it exists.
func (t *Tracker) find(lo float64) (int, bool) {
	i, j := 0, len(t.groups)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t.groups[h].lo > lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(t.groups) && t.groups[i].lo == lo
}

// join adds one type to the group keyed lo, creating the group.
func (t *Tracker) join(lo float64) {
	i, ok := t.find(lo)
	if ok {
		t.groups[i].pop++
		return
	}
	t.groups = slices.Insert(t.groups, i, loGroup{lo: lo, pop: 1})
}

// leave removes one type from the group keyed lo, dropping the group
// when it empties.
func (t *Tracker) leave(lo float64) {
	i, _ := t.find(lo)
	t.groups[i].pop--
	if t.groups[i].pop == 0 {
		t.groups = slices.Delete(t.groups, i, i+1)
	}
}

// Evaluation is the pair of quantities the greedy heuristics order
// candidate moves by: the graph's maximum opacity (Algorithm 1's output)
// and the paper's N(p), the number of types attaining that maximum.
type Evaluation struct {
	MaxLO      float64
	Population int
}

// Better reports whether e is strictly preferable to o under the paper's
// lexicographic criterion: lower max opacity first, then a smaller
// population of types attaining it.
func (e Evaluation) Better(o Evaluation) bool {
	if e.MaxLO != o.MaxLO {
		return e.MaxLO < o.MaxLO
	}
	return e.Population < o.Population
}

// Ties reports whether e and o are indistinguishable to the greedy
// criterion (equal opacity and population).
func (e Evaluation) Ties(o Evaluation) bool {
	return e.MaxLO == o.MaxLO && e.Population == o.Population
}

// fold adds pop types at opacity lo the way Algorithm 1's scan does
// from {0, 0}: a higher LO replaces the maximum, an equal one joins its
// population, and a lower one is ignored.
func (e *Evaluation) fold(lo float64, pop int) {
	switch {
	case lo > e.MaxLO:
		e.MaxLO, e.Population = lo, pop
	case lo == e.MaxLO:
		e.Population += pop
	}
}

// Evaluate returns the current maximum opacity and its population
// (Algorithm 1 lines 7-12 plus the N function of Section 5.2), read off
// the index's top group in O(1).
func (t *Tracker) Evaluate() Evaluation {
	var e Evaluation
	if len(t.groups) > 0 {
		e.fold(t.groups[0].lo, t.groups[0].pop)
	}
	return e
}

// TypeDelta is a net change D to the <=L pair count of type ID.
type TypeDelta struct {
	ID, D int32
}

// AppendTypeDeltas folds per-pair distance changes into net per-type
// count deltas and appends one TypeDelta per type whose count changes,
// in order of first appearance. deltas is per-type scratch (len
// NumTypes): it must be all zero on entry and is left all zero. The
// tracker is only read, so concurrent callers with their own deltas
// may share it.
func (t *Tracker) AppendTypeDeltas(dst []TypeDelta, changes []PairChange, deltas []int) []TypeDelta {
	start := len(dst)
	for _, c := range changes {
		id, step := t.crossing(c.X, c.Y, c.OldD, c.NewD)
		if id < 0 {
			continue
		}
		if deltas[id] == 0 {
			dst = append(dst, TypeDelta{ID: int32(id)})
		}
		deltas[id] += step
	}
	// A type listed twice (its delta returned to zero and left it again)
	// is emitted at its first listing, which zeroes it; net-zero types
	// are dropped.
	out := dst[:start]
	for _, td := range dst[start:] {
		if d := deltas[td.ID]; d != 0 {
			out = append(out, TypeDelta{ID: td.ID, D: int32(d)})
			deltas[td.ID] = 0
		}
	}
	return out
}

// EvaluateDeltas returns the evaluation that WOULD result from applying
// the net per-type deltas ds, without mutating the tracker. ds must
// name each type at most once. The changed types are folded in at their
// new LOs; of the unchanged types only the best index group that still
// has unchanged members can matter, and the walk down to it visits at
// most one group per changed type, so the cost is O(len(ds)) per group
// visited — independent of the number of types.
func (t *Tracker) EvaluateDeltas(ds []TypeDelta) Evaluation {
	var e Evaluation
	for _, d := range ds {
		if t.totals[d.ID] > 0 {
			e.fold(t.ratio(int(d.ID), t.counts[d.ID]+int(d.D)), 1)
		}
	}
	for _, g := range t.groups {
		if g.lo < e.MaxLO {
			break // this group and every lower one are below the maximum
		}
		left := g.pop
		for _, d := range ds {
			if t.lo[d.ID] == g.lo {
				left--
			}
		}
		if left > 0 {
			e.fold(g.lo, left)
			break
		}
	}
	return e
}

// EvaluateWith computes the evaluation that WOULD result from applying
// the given per-pair distance changes, without mutating the tracker:
// the changes are folded into net per-type deltas (AppendTypeDeltas),
// which EvaluateDeltas merges with the index. deltas is per-type
// scratch of length NumTypes that must be all zero on entry and is left
// all zero; pass nil to allocate.
func (t *Tracker) EvaluateWith(changes []PairChange, deltas []int) Evaluation {
	if deltas == nil {
		deltas = make([]int, len(t.counts))
	}
	var buf [64]TypeDelta
	return t.EvaluateDeltas(t.AppendTypeDeltas(buf[:0], changes, deltas))
}

// PairChange records a capped-distance change for one vertex pair.
type PairChange struct {
	X, Y       int
	OldD, NewD int
}
