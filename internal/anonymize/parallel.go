package anonymize

import (
	"sync"

	"repro/internal/apsp"
	"repro/internal/opacity"
)

// Candidate scans dominate the heuristics' cost and are embarrassingly
// parallel: evaluating one candidate never depends on another. This
// file provides the scan lanes, which preserve the sequential semantics
// bit-for-bit — lanes only fill per-candidate results, and the reservoir
// tie-break then consumes them in the original candidate order with the
// original seeded RNG, so a run with Workers = 8 picks exactly the edges
// a run with Workers = 1 picks.
//
// Both delta kernels are pure readers: InsertionDelta reads only the
// distance store, and RemovalDelta recomputes with the candidate edge
// masked out of the BFS instead of toggling it, so the working graph,
// the store and the tracker are shared read-only across every lane — no
// clones. The only per-lane state is a workerState of O(n) scratch
// buffers, allocated once per lane for the lifetime of the run and
// reused across every greedy step, so steady-state scans allocate
// nothing. A single lane runs inline on the run's goroutine through the
// same lane body, so sequential and parallel scans share one code path.

// workerState is one evaluation lane's private scratch: reused across
// candidates within a scan and across scans within a run.
type workerState struct {
	scratch *apsp.Scratch
	deltas  []int // per-type scratch for AppendTypeDeltas, all zero between uses
	changes []opacity.PairChange
	// types holds net type deltas: one candidate's for an insertion
	// scan; for a removal refresh, the deltas of stale candidates
	// c.stale[lo:hi], the j-th ending at ends[j].
	types  []opacity.TypeDelta
	ends   []int32
	lo, hi int
}

// workerStates returns w lanes of per-worker scratch, growing the
// state's pool on first use.
func (s *state) workerStates(w int) []*workerState {
	for len(s.pool) < w {
		s.pool = append(s.pool, &workerState{
			scratch: apsp.NewScratch(s.g.N()),
			deltas:  make([]int, s.tr.Types().NumTypes()),
		})
	}
	return s.pool[:w]
}

// workers resolves the configured parallelism: Options.Workers when it
// is greater than 1, else 1 (sequential). Workers = 1 is sequential by
// definition, and the zero value deliberately shares that path — a
// single lane through the parallel machinery would only add goroutine
// overhead, so the two settings are exact equivalents (a cross-worker
// test asserts it). The count is not capped at GOMAXPROCS: extra
// goroutines cost little, and honoring the requested fan-out keeps the
// concurrent code path exercised (and race-checkable) even on small
// machines.
func (s *state) workers() int {
	if w := s.opts.Workers; w > 1 {
		return w
	}
	return 1
}

// laneTask names the body a scan lane runs.
type laneTask int

const (
	// laneRemovalDeltas recomputes the stale removal candidates' type
	// deltas (recomputeStale).
	laneRemovalDeltas laneTask = iota
	// laneInsertions evaluates insertion candidates (evalInsertionLane).
	laneInsertions
)

// runLanes splits the work items [0, n) into contiguous chunks, one per
// lane, runs task on each — inline for a single lane, else one goroutine
// per chunk — and returns the lanes used, in chunk order.
func (s *state) runLanes(task laneTask, n int) []*workerState {
	if n == 0 {
		return nil
	}
	w := s.workers()
	if n < 2*w {
		w = 1
	}
	chunk := (n + w - 1) / w
	lanes := s.workerStates((n + chunk - 1) / chunk)
	if len(lanes) == 1 {
		s.runLane(task, lanes[0], 0, n)
		return lanes
	}
	var wg sync.WaitGroup
	for i, ws := range lanes {
		wg.Add(1)
		go func(ws *workerState, lo, hi int) {
			defer wg.Done()
			s.runLane(task, ws, lo, hi)
		}(ws, i*chunk, min((i+1)*chunk, n))
	}
	wg.Wait()
	return lanes
}

// runLane runs one lane's share [lo, hi) of a scan.
func (s *state) runLane(task laneTask, ws *workerState, lo, hi int) {
	switch task {
	case laneRemovalDeltas:
		s.recomputeStale(ws, lo, hi)
	case laneInsertions:
		s.evalInsertionLane(ws, lo, hi)
	}
}

// evalRemovals fills evs[i] with the evaluation of removing candidate
// i from the current graph. Only the stale candidates' deltas are
// recomputed; every candidate is then evaluated against the current
// tracker.
func (s *state) evalRemovals(evs []opacity.Evaluation) {
	s.refreshRemovalDeltas()
	for i := range s.cands.edges {
		evs[i] = s.normalize(s.tr.EvaluateDeltas(s.cands.deltas(i)))
	}
	s.evals += int64(len(s.cands.edges))
}

// evalInsertions fills s.evalsBuf[i] with the evaluation of inserting
// s.insertBuf[i], in parallel when configured.
func (s *state) evalInsertions() {
	s.runLanes(laneInsertions, len(s.insertBuf))
	s.evals += int64(len(s.insertBuf))
}

// evalInsertionLane is the insertion lane body over s.insertBuf[lo:hi].
func (s *state) evalInsertionLane(ws *workerState, lo, hi int) {
	for i := lo; i < hi; i++ {
		ws.changes = appendInsertionChanges(ws.changes[:0], s.m, s.insertBuf[i], ws.scratch)
		ws.types = s.tr.AppendTypeDeltas(ws.types[:0], ws.changes, ws.deltas)
		s.evalsBuf[i] = s.normalize(s.tr.EvaluateDeltas(ws.types))
	}
}
