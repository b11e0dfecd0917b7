package anonymize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// AnnealOptions configures the simulated-annealing opacifier, a
// future-work alternative to the paper's greedy heuristics. Where the
// greedy algorithms commit the locally best edge forever, annealing
// explores the joint space of removals AND insertions with occasional
// uphill moves, and can therefore escape the local optima the paper's
// look-ahead mechanism was designed to work around. The ablation
// experiment compares the two on distortion and runtime.
type AnnealOptions struct {
	// L and Theta define the privacy target, as in Options.
	L     int
	Theta float64
	// Seed drives all stochastic choices; runs are deterministic for a
	// fixed seed.
	Seed int64
	// Steps is the number of proposal iterations. Zero selects a
	// size-scaled default of 40*m + 20*n proposals.
	Steps int
	// InitTemp is the starting temperature T0 (> 0). Zero selects 0.5.
	InitTemp float64
	// FinalTemp is the temperature after the last step (> 0, < T0).
	// Zero selects 1e-4. The geometric cooling rate follows from
	// (FinalTemp/InitTemp)^(1/Steps).
	FinalTemp float64
	// PenaltyWeight scales the infeasibility term of the energy
	// function E = PenaltyWeight*max(0, maxLO-Theta) + |EΔÊ|/|E|.
	// Zero selects 8, which makes any infeasibility more expensive
	// than rewriting the whole edge set.
	PenaltyWeight float64
	// Budget bounds wall-clock time; 0 means unlimited. On exhaustion
	// the best feasible snapshot found so far (or the current state)
	// is returned with TimedOut set.
	Budget time.Duration
	// Trace, when non-nil, receives a record after every ACCEPTED move.
	Trace func(Step)
	// Progress, when non-nil, receives a report after every accepted
	// move, exactly as Options.Progress does for the greedy
	// heuristics: Steps counts accepted moves.
	Progress func(Progress)
	// Types overrides the vertex-pair type system, as in Options.Types.
	Types opacity.TypeAssigner
	// Distances optionally seeds the run from a prebuilt store, as in
	// Options.Distances: the run mutates a sparse copy-on-write overlay
	// over it, never the store itself.
	Distances apsp.Store
}

func (o *AnnealOptions) setDefaults(n, m int) {
	if o.Steps <= 0 {
		o.Steps = 40*m + 20*n
	}
	if o.InitTemp <= 0 {
		o.InitTemp = 0.5
	}
	if o.FinalTemp <= 0 {
		o.FinalTemp = 1e-4
	}
	if o.PenaltyWeight <= 0 {
		o.PenaltyWeight = 8
	}
}

// Anneal runs simulated annealing toward an L-opaque graph, returning
// the best feasible state encountered (fewest edits with maxLO <= Theta)
// or, when no feasible state was ever visited, the final state. The
// input graph is never modified.
func Anneal(g *graph.Graph, opts AnnealOptions) (Result, error) {
	return AnnealContext(context.Background(), g, opts)
}

// AnnealContext is Anneal under a context: cancellation is observed
// between proposal iterations, exactly like the wall-clock budget, and
// returns the usual best-effort result with Result.Cancelled set.
func AnnealContext(ctx context.Context, g *graph.Graph, opts AnnealOptions) (Result, error) {
	if opts.L < 1 || opts.L > apsp.MaxL {
		return Result{}, fmt.Errorf("anonymize: L must be in [1, %d], got %d", apsp.MaxL, opts.L)
	}
	if opts.Theta < 0 || opts.Theta > 1 {
		return Result{}, fmt.Errorf("anonymize: theta must be in [0, 1], got %v", opts.Theta)
	}
	opts.setDefaults(g.N(), g.M())

	s, err := newState(ctx, g, Options{
		L: opts.L, Theta: opts.Theta, Seed: opts.Seed, LookAhead: 1,
		Budget: opts.Budget, Types: opts.Types, Progress: opts.Progress,
		Distances: opts.Distances,
	})
	if err != nil {
		return Result{}, err
	}
	a := &annealer{
		state:    s,
		opts:     opts,
		original: g,
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	return a.run(), nil
}

// annealer layers Metropolis bookkeeping over the incremental state.
type annealer struct {
	*state
	opts     AnnealOptions
	original *graph.Graph
	rng      *rand.Rand

	// Symmetric difference against the original: removedSet holds
	// original edges currently absent; addedSet holds non-original
	// edges currently present. |EΔÊ| = len(removedSet)+len(addedSet).
	removedSet *graph.EdgeSet
	addedSet   *graph.EdgeSet

	bestGraph    *graph.Graph // best feasible snapshot, nil until found
	bestRemoved  []graph.Edge
	bestInserted []graph.Edge
	bestLO       float64

	accepted int
}

// energy maps the current tracker evaluation and edit count to the
// annealing objective.
func (a *annealer) energy(ev opacity.Evaluation) float64 {
	excess := ev.MaxLO - a.opts.Theta
	if excess < 0 {
		excess = 0
	}
	edits := float64(a.removedSet.Len() + a.addedSet.Len())
	m := float64(a.original.M())
	if m == 0 {
		m = 1
	}
	return a.opts.PenaltyWeight*excess + edits/m
}

func (a *annealer) run() Result {
	a.removedSet = graph.NewEdgeSet()
	a.addedSet = graph.NewEdgeSet()
	a.bestLO = math.Inf(1)

	ev := a.tr.Evaluate()
	if ev.MaxLO <= a.opts.Theta {
		// Already opaque: zero edits is globally optimal.
		return a.finish(ev)
	}
	cur := a.energy(ev)
	t0, tEnd := a.opts.InitTemp, a.opts.FinalTemp
	alpha := math.Pow(tEnd/t0, 1/float64(a.opts.Steps))
	temp := t0

	for i := 0; i < a.opts.Steps; i++ {
		if a.interrupted() {
			break
		}
		ev2, undo, ok := a.propose()
		if !ok {
			temp *= alpha
			continue
		}
		a.evals++
		next := a.energy(ev2)
		if next <= cur || a.rng.Float64() < math.Exp((cur-next)/temp) {
			cur = next
			ev = ev2
			a.accepted++
			a.snapshotIfBest(ev)
			if a.opts.Trace != nil {
				a.opts.Trace(Step{Index: a.accepted - 1, Insert: undo.insert, Edges: []graph.Edge{undo.e}, After: ev})
			}
			a.emitProgress(a.accepted, ev.MaxLO)
		} else {
			undo.apply(a)
		}
		temp *= alpha
	}
	return a.finish(ev)
}

// proposal undo record: re-applying the inverse move restores the state.
type undoMove struct {
	e       graph.Edge
	insert  bool // the PROPOSED move was an insertion
	changes []opacity.PairChange
}

func (u undoMove) apply(a *annealer) {
	if u.insert {
		// Undo insertion: revert matrix/tracker entries, drop the edge.
		a.g.RemoveEdge(u.e.U, u.e.V)
		for _, c := range u.changes {
			a.m.Set(c.X, c.Y, c.OldD)
			a.tr.Update(c.X, c.Y, c.NewD, c.OldD)
		}
		a.toggleEditSets(u.e, false)
	} else {
		a.undoRemoval(u.e, u.changes)
		a.toggleEditSets(u.e, true)
	}
}

// toggleEditSets updates the symmetric-difference ledgers after the edge
// e transitions to present (true) or absent (false).
func (a *annealer) toggleEditSets(e graph.Edge, present bool) {
	orig := a.original.HasEdge(e.U, e.V)
	switch {
	case present && orig:
		a.removedSet.Remove(e)
	case present && !orig:
		a.addedSet.Add(e)
	case !present && orig:
		a.removedSet.Add(e)
	default:
		a.addedSet.Remove(e)
	}
}

// propose applies one random edge toggle and returns the resulting
// evaluation plus the undo record. ok is false when no move of the
// chosen kind exists (empty or complete graph).
func (a *annealer) propose() (opacity.Evaluation, undoMove, bool) {
	n := a.g.N()
	tryInsert := a.rng.Intn(2) == 0
	if a.g.M() == 0 {
		tryInsert = true
	}
	if a.g.M() == n*(n-1)/2 {
		tryInsert = false
	}
	if a.g.M() == 0 && tryInsert == false {
		return opacity.Evaluation{}, undoMove{}, false
	}

	if tryInsert {
		e, ok := a.randomAbsentEdge()
		if !ok {
			return opacity.Evaluation{}, undoMove{}, false
		}
		changes := appendInsertionChanges(nil, a.m, e, a.scratch)
		for _, c := range changes {
			a.m.Set(c.X, c.Y, c.NewD)
			a.tr.Update(c.X, c.Y, c.OldD, c.NewD)
		}
		a.g.AddEdge(e.U, e.V)
		a.toggleEditSets(e, true)
		return a.tr.Evaluate(), undoMove{e: e, insert: true, changes: changes}, true
	}

	edges := a.g.Edges()
	e := edges[a.rng.Intn(len(edges))]
	changes := a.commitRemoval(e, nil)
	a.toggleEditSets(e, false)
	return a.tr.Evaluate(), undoMove{e: e, insert: false, changes: changes}, true
}

// randomAbsentEdge samples a uniformly random non-edge by rejection,
// falling back to a deterministic scan on very dense graphs.
func (a *annealer) randomAbsentEdge() (graph.Edge, bool) {
	n := a.g.N()
	if n < 2 {
		return graph.Edge{}, false
	}
	for attempt := 0; attempt < 64; attempt++ {
		u := a.rng.Intn(n)
		v := a.rng.Intn(n)
		if u == v || a.g.HasEdge(u, v) {
			continue
		}
		return graph.E(u, v), true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !a.g.HasEdge(u, v) {
				return graph.Edge{U: u, V: v}, true
			}
		}
	}
	return graph.Edge{}, false
}

// snapshotIfBest records the current state when it is feasible and
// strictly cheaper than the best snapshot so far.
func (a *annealer) snapshotIfBest(ev opacity.Evaluation) {
	if ev.MaxLO > a.opts.Theta {
		return
	}
	edits := a.removedSet.Len() + a.addedSet.Len()
	if a.bestGraph != nil && edits >= len(a.bestRemoved)+len(a.bestInserted) {
		return
	}
	a.bestGraph = a.g.Clone()
	a.bestRemoved = a.removedSet.Slice()
	a.bestInserted = a.addedSet.Slice()
	a.bestLO = ev.MaxLO
}

func (a *annealer) finish(ev opacity.Evaluation) Result {
	if a.bestGraph != nil {
		return Result{
			Graph:          a.bestGraph,
			Satisfied:      true,
			FinalLO:        a.bestLO,
			Removed:        a.bestRemoved,
			Inserted:       a.bestInserted,
			Steps:          a.accepted,
			CandidateEvals: a.evals,
			TimedOut:       a.timedOut,
			Cancelled:      a.cancelled,
		}
	}
	return Result{
		Graph:          a.g,
		Satisfied:      ev.MaxLO <= a.opts.Theta,
		FinalLO:        ev.MaxLO,
		Removed:        a.removedSet.Slice(),
		Inserted:       a.addedSet.Slice(),
		Steps:          a.accepted,
		CandidateEvals: a.evals,
		TimedOut:       a.timedOut,
		Cancelled:      a.cancelled,
	}
}
