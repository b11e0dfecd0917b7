package anonymize

import (
	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// appendRemovalChanges appends to dst the pair-distance changes caused
// by removing e from g, without mutating anything. Workers call it with
// their own Scratch; g and m are shared read-only.
func appendRemovalChanges(dst []opacity.PairChange, g *graph.Graph, m apsp.Store, e graph.Edge, sc *apsp.Scratch) []opacity.PairChange {
	apsp.RemovalDelta(g, m, e.U, e.V, sc, func(x, y, oldD, newD int) {
		dst = append(dst, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
	})
	return dst
}

// appendInsertionChanges appends to dst the pair-distance changes
// caused by inserting e, without mutating anything.
func appendInsertionChanges(dst []opacity.PairChange, m apsp.Store, e graph.Edge, sc *apsp.Scratch) []opacity.PairChange {
	apsp.InsertionDeltaScratch(m, e.U, e.V, sc, func(x, y, oldD, newD int) {
		dst = append(dst, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
	})
	return dst
}

// commitRemoval applies the removal of e to the graph, matrix, and
// tracker. The applied changes are written over buf and returned for a
// possible undo; callers pass back a buffer they own (one per
// look-ahead depth), so trial commits reuse memory instead of
// allocating a change list each.
func (s *state) commitRemoval(e graph.Edge, buf []opacity.PairChange) []opacity.PairChange {
	changes := appendRemovalChanges(buf[:0], s.g, s.m, e, s.scratch)
	for _, c := range changes {
		s.m.Set(c.X, c.Y, c.NewD)
		s.tr.Update(c.X, c.Y, c.OldD, c.NewD)
	}
	s.g.RemoveEdge(e.U, e.V)
	return changes
}

// undoRemoval reverses a commitRemoval given its returned change list.
func (s *state) undoRemoval(e graph.Edge, changes []opacity.PairChange) {
	s.g.AddEdge(e.U, e.V)
	for _, c := range changes {
		s.m.Set(c.X, c.Y, c.OldD)
		s.tr.Update(c.X, c.Y, c.NewD, c.OldD)
	}
}

// commitInsertion applies the insertion of e. Unlike removals,
// insertions are never trial-committed: candidates are evaluated
// incrementally via EvaluateDeltas, so no undo path is needed.
func (s *state) commitInsertion(e graph.Edge) {
	s.changes = appendInsertionChanges(s.changes[:0], s.m, e, s.scratch)
	for _, c := range s.changes {
		s.m.Set(c.X, c.Y, c.NewD)
		s.tr.Update(c.X, c.Y, c.OldD, c.NewD)
	}
	s.g.AddEdge(e.U, e.V)
}

// applyRemoval commits the removal of e for real, as opposed to a
// look-ahead trial: it invalidates the cached removal deltas around e
// on the graph that still contains it, commits, drops e from the
// candidates, and logs it.
func (s *state) applyRemoval(e graph.Edge) {
	s.cands.stampAround(s.g, e)
	s.changes = s.commitRemoval(e, s.changes)
	s.cands.drop(e)
	s.removedLog = append(s.removedLog, e)
}

// applyInsertion commits the insertion of e, invalidates the cached
// removal deltas around e on the graph that now contains it, and logs
// it.
func (s *state) applyInsertion(e graph.Edge) {
	s.commitInsertion(e)
	s.cands.stampAround(s.g, e)
	s.insertedLog = append(s.insertedLog, e)
}

// reservoir implements the paper's tie-breaking policy (Algorithm 4
// lines 8-18): strictly better evaluations are always taken and reset
// the tie counter; exact ties are resolved by reservoir sampling with
// probability 1/t.
type reservoir struct {
	ev    opacity.Evaluation
	found bool
	t     int
}

// offer considers a candidate with evaluation ev; it returns true when
// the caller must record the candidate as the new choice.
func (r *reservoir) offer(ev opacity.Evaluation, rng interface{ Float64() float64 }) bool {
	if !r.found || ev.Better(r.ev) {
		r.ev = ev
		r.found = true
		r.t = 1
		return true
	}
	if ev.Ties(r.ev) {
		r.t++
		if rng.Float64() < 1.0/float64(r.t) {
			return true
		}
	}
	return false
}

// normalize strips the population component when the ablation option
// disabling the N(lo) tie-break is set.
func (s *state) normalize(ev opacity.Evaluation) opacity.Evaluation {
	if s.opts.IgnorePopulation {
		ev.Population = 0
	}
	return ev
}

// bestSingleRemoval scans all removal candidates and returns the
// greedy-best edge and its evaluation. Stale candidates' deltas may be
// recomputed on multiple workers (Options.Workers); the reservoir
// tie-break always consumes the evaluations in candidate order, so
// parallel runs choose exactly the same edges as sequential ones.
func (s *state) bestSingleRemoval() (graph.Edge, opacity.Evaluation, bool) {
	candidates := s.cands.edges
	evs := s.evalBuf(len(candidates))
	s.evalRemovals(evs)
	var (
		res    reservoir
		chosen graph.Edge
	)
	for i, e := range candidates {
		if res.offer(evs[i], s.rng) {
			chosen = e
		}
	}
	return chosen, res.ev, res.found
}

// chooseInsertion scans all insertable edges (absent, not previously
// removed) and returns the greedy-best one. As with removals, the scan
// may be parallel while the tie-break is sequential and deterministic.
func (s *state) chooseInsertion() (graph.Edge, bool) {
	n := s.g.N()
	s.insertBuf = s.insertBuf[:0]
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if s.g.HasEdge(u, v) {
				continue
			}
			e := graph.Edge{U: u, V: v}
			if s.removed.Has(e) {
				continue
			}
			s.insertBuf = append(s.insertBuf, e)
		}
	}
	evs := s.evalBuf(len(s.insertBuf))
	s.evalInsertions()
	var (
		res    reservoir
		chosen graph.Edge
	)
	for i, e := range s.insertBuf {
		if res.offer(evs[i], s.rng) {
			chosen = e
		}
	}
	return chosen, res.found
}

// chooseRemovalCombo implements the look-ahead selection for a removal
// step. It first scans single edges; a strictly improving single move is
// taken immediately. Otherwise the search widens to combinations of
// size 2, 3, ... up to la, returning the first strictly improving
// combination found; if none improves, the overall best candidate (the
// smallest size wins ties) is returned so the greedy always progresses.
// A nil return means there are no candidates at all.
func (s *state) chooseRemovalCombo(cur opacity.Evaluation) []graph.Edge {
	cur = s.normalize(cur)
	candidates := s.cands.edges
	if len(candidates) == 0 {
		return nil
	}
	single, ev, ok := s.bestSingleRemoval()
	if !ok {
		return nil
	}
	if ev.Better(cur) || s.opts.LookAhead <= 1 {
		return []graph.Edge{single}
	}
	bestCombo := []graph.Edge{single}
	bestEv := ev
	for size := 2; size <= s.opts.LookAhead && size <= len(candidates); size++ {
		combo, comboEv, found := s.searchCombos(candidates, size)
		if found && comboEv.Better(bestEv) {
			bestCombo, bestEv = combo, comboEv
		}
		if bestEv.Better(cur) {
			return bestCombo
		}
	}
	return bestCombo
}

// searchCombos exhaustively evaluates all size-c removal combinations
// (generated recursively and evaluated on the fly, per Section 5.2's
// space-saving note), returning the reservoir-selected best.
func (s *state) searchCombos(candidates []graph.Edge, size int) ([]graph.Edge, opacity.Evaluation, bool) {
	var (
		res     reservoir
		best    []graph.Edge
		current = make([]graph.Edge, 0, size)
	)
	for len(s.comboBufs) < size {
		s.comboBufs = append(s.comboBufs, nil)
	}
	var recurse func(start int)
	recurse = func(start int) {
		if len(current) == size {
			ev := s.normalize(s.tr.Evaluate())
			s.evals++
			if res.offer(ev, s.rng) {
				best = append(best[:0], current...)
			}
			return
		}
		// Not enough remaining candidates to fill the combination.
		for i := start; i <= len(candidates)-(size-len(current)); i++ {
			e := candidates[i]
			depth := len(current)
			changes := s.commitRemoval(e, s.comboBufs[depth])
			s.comboBufs[depth] = changes // keep the grown buffer
			current = append(current, e)
			recurse(i + 1)
			current = current[:len(current)-1]
			s.undoRemoval(e, changes)
		}
	}
	recurse(0)
	if !res.found {
		return nil, opacity.Evaluation{}, false
	}
	out := append([]graph.Edge(nil), best...)
	return out, res.ev, true
}
