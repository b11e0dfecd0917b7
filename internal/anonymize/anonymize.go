// Package anonymize implements the paper's L-opacification heuristics:
// the Edge Removal algorithm (Algorithm 4), the Edge Removal/Insertion
// algorithm (Algorithm 5), and their look-ahead variants (Section 5).
//
// Both heuristics greedily pick the move yielding the lowest resulting
// maximum opacity LO(G'); ties are broken first by the smallest number
// N(lo) of pair types attaining the maximum, then uniformly at random via
// reservoir sampling with a counter, exactly as in the paper's
// pseudocode. When no single-edge move strictly improves the evaluation,
// the look-ahead mechanism widens the search to combinations of up to la
// edges before falling back to the best (possibly non-improving) move
// found — the paper's "delay this random decision until after checking
// all the possible combinations of size up to the given la threshold".
//
// Candidate moves are evaluated incrementally and ball-locally (package
// apsp): a trial insertion scans only the pairs within L-1 of the new
// edge's endpoints, and a trial removal runs an edge-masked bounded BFS
// from the smaller of the edge's two crossing sets only, comparing
// against the other set — no per-candidate term grows with n. The pair
// changes fold into net per-type deltas, which the tracker's
// max-opacity index scores in O(changed types) (package opacity).
//
// Removal candidates' type deltas are cached between greedy steps
// (removalCache): after each real commit on {a, b}, a BFS of radius
// 2L-2 from a and b over the graph containing {a, b} marks the only
// candidates whose deltas can have changed, and only those re-run the
// removal kernel — a few percent of evaluations on the paper's
// samples. Tests verify the incremental path and the cache always
// agree with full recomputation, and a golden test pins every choice,
// so the heuristics make exactly the choices the paper's
// O(|V|^3)-per-candidate implementation would make, only faster.
package anonymize

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// Heuristic selects which of the paper's two algorithms to run.
type Heuristic int

const (
	// Removal is the paper's Algorithm 4: greedy edge removal.
	Removal Heuristic = iota
	// RemovalInsertion is the paper's Algorithm 5: alternating greedy
	// removal and insertion, preserving the original edge count.
	RemovalInsertion
)

// String names the heuristic as in the paper's figures.
func (h Heuristic) String() string {
	switch h {
	case Removal:
		return "Rem"
	case RemovalInsertion:
		return "Rem-Ins"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// Options configures a run of the L-opacification algorithm.
type Options struct {
	// L is the path-length threshold of the privacy model (>= 1).
	L int
	// Theta is the confidence threshold in [0, 1]; the run stops when
	// max-opacity <= Theta (the loop condition of Algorithms 4 and 5).
	Theta float64
	// Heuristic selects Removal or RemovalInsertion.
	Heuristic Heuristic
	// LookAhead is the paper's la parameter (>= 1): the largest edge
	// combination considered when no single move strictly improves.
	LookAhead int
	// Seed drives the reservoir tie-breaking; runs are deterministic for
	// a fixed seed.
	Seed int64
	// MaxSteps caps greedy iterations as a safety valve; 0 means
	// unlimited (the algorithms terminate on their own regardless,
	// because every edge is removed or inserted at most once).
	MaxSteps int
	// IgnorePopulation disables the paper's N(lo) secondary tie-break
	// criterion (Section 5.2), falling straight to random selection
	// among equal-opacity moves. Exists for the ablation experiments
	// that quantify the criterion's contribution.
	IgnorePopulation bool
	// Workers sets the number of goroutines used for candidate scans;
	// values below 2 (and the zero value) run sequentially. Parallel
	// runs are bit-for-bit identical to sequential ones: workers only
	// evaluate, while selection stays sequential over the candidate
	// order with the seeded RNG.
	Workers int
	// Distances, when non-nil, is a prebuilt L-capped distance store of
	// the INPUT graph (same vertex count, same L). The run wraps it in a
	// sparse copy-on-write overlay (apsp.Overlay) instead of rebuilding
	// APSP from scratch — the serving layer's registry hands one cached
	// store to every request — and never mutates the original, so the
	// same store may seed concurrent runs, including read-only paged
	// views of triangles larger than RAM. No full-triangle
	// copy is ever taken: a run that commits no moves allocates O(1) for
	// the seed, and one that does pays O(mutated cells). Every prebuilt
	// store holds the identical capped distances a fresh build would, so
	// the anonymization outcome is unchanged. When nil, the run builds
	// the store with apsp.Build over Workers goroutines.
	Distances apsp.Store
	// Budget bounds the wall-clock time of the run; 0 means unlimited.
	// When the budget is exhausted the run stops between greedy
	// iterations and returns the best-effort graph with TimedOut set.
	// The paper's ACM experiment ran 16 days; this is the production
	// safety valve for callers that cannot.
	Budget time.Duration
	// Trace, when non-nil, receives a record after every committed step.
	Trace func(Step)
	// Progress, when non-nil, receives a lightweight report after every
	// committed greedy step (or accepted annealing move): steps so far,
	// the current maximum opacity, and the wall-clock budget consumed.
	// It is invoked synchronously on the run's goroutine, so
	// implementations must be fast and must not block; the serving
	// layer uses it to stream job progress to watching clients.
	Progress func(Progress)
	// Types overrides the vertex-pair type system of Definition 1; nil
	// selects the paper's default, unordered pairs of ORIGINAL degrees.
	// Custom assigners must be computed against the original graph —
	// the publication model freezes types before any mutation.
	Types opacity.TypeAssigner
}

// Progress is a point-in-time report of a running opacification,
// delivered through Options.Progress after every committed step.
type Progress struct {
	// Steps counts committed greedy iterations (or accepted annealing
	// moves) so far.
	Steps int
	// MaxLO is the graph-level maximum opacity after the last
	// committed step.
	MaxLO float64
	// Elapsed is the wall-clock time consumed since the run started.
	Elapsed time.Duration
	// Budget echoes Options.Budget (zero for an unbounded run), so a
	// consumer can render "budget consumed" without extra plumbing.
	Budget time.Duration
}

// Step describes one committed greedy move for tracing and audit.
type Step struct {
	// Index is the 0-based step number.
	Index int
	// Insert is false for a removal move, true for an insertion move.
	Insert bool
	// Edges lists the one or more edges of the chosen combination.
	Edges []graph.Edge
	// After is the evaluation following the move.
	After opacity.Evaluation
}

// Result reports the outcome of a run.
type Result struct {
	// Graph is the anonymized graph (a mutated copy; the input graph is
	// never modified).
	Graph *graph.Graph
	// Satisfied reports whether max-opacity <= Theta was reached.
	Satisfied bool
	// FinalLO is the achieved maximum opacity.
	FinalLO float64
	// Removed and Inserted list the committed edge operations in order.
	Removed  []graph.Edge
	Inserted []graph.Edge
	// Steps counts greedy iterations (a Rem-Ins iteration performs one
	// removal and one insertion).
	Steps int
	// CandidateEvals counts how many candidate moves were evaluated, the
	// dominant cost driver (used by the runtime experiments).
	CandidateEvals int64
	// TimedOut reports that the run stopped because Options.Budget was
	// exhausted before the privacy target was reached.
	TimedOut bool
	// Cancelled reports that the run stopped because the context passed
	// to RunContext (or AnnealContext) was cancelled. The returned graph
	// is the best effort at the moment of cancellation.
	Cancelled bool
}

// Distortion returns the paper's Equation 1 for this result relative to
// the original edge count m: |E Δ Ê| / |E|.
func (r Result) Distortion(originalM int) float64 {
	if originalM == 0 {
		return 0
	}
	return float64(len(r.Removed)+len(r.Inserted)) / float64(originalM)
}

// Run executes the configured heuristic on g and returns the anonymized
// graph together with the full operation log. The input graph is cloned,
// and the vertex-pair types are frozen from its ORIGINAL degrees per the
// paper's publication model.
func Run(g *graph.Graph, opts Options) (Result, error) {
	return RunContext(context.Background(), g, opts)
}

// RunContext is Run under a context: cancellation is observed between
// greedy iterations — the same boundary the wall-clock budget is
// checked at — so cancelling the context stops the computation itself
// promptly, not merely whoever was waiting on it. A cancelled run
// returns the best-effort result with Result.Cancelled set.
func RunContext(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	if opts.L < 1 {
		return Result{}, fmt.Errorf("anonymize: L must be >= 1, got %d", opts.L)
	}
	if opts.Theta < 0 || opts.Theta > 1 {
		return Result{}, fmt.Errorf("anonymize: theta must be in [0, 1], got %v", opts.Theta)
	}
	if opts.LookAhead < 1 {
		opts.LookAhead = 1
	}
	s, err := newState(ctx, g, opts)
	if err != nil {
		return Result{}, err
	}
	switch opts.Heuristic {
	case Removal:
		return s.runRemoval(), nil
	case RemovalInsertion:
		return s.runRemovalInsertion(), nil
	}
	return Result{}, fmt.Errorf("anonymize: unknown heuristic %d", opts.Heuristic)
}

// state carries the working graph and all incremental bookkeeping.
type state struct {
	ctx     context.Context
	opts    Options
	g       *graph.Graph
	m       apsp.MutableStore
	tr      *opacity.Tracker
	rng     *rand.Rand
	scratch *apsp.Scratch        // commit-time scratch
	changes []opacity.PairChange // reusable commit change buffer
	// comboBufs[d] holds the trial commit's change list at look-ahead
	// depth d, reused across every combination searchCombos tries.
	comboBufs [][]opacity.PairChange
	cands     removalCache   // removal candidates and their cached deltas
	removed   *graph.EdgeSet // ED: never reinsert these
	evals     int64

	removedLog  []graph.Edge
	insertedLog []graph.Edge
	steps       int
	started     time.Time // run start, for Progress.Elapsed
	deadline    time.Time // zero when Options.Budget is unset
	timedOut    bool
	cancelled   bool

	evalsBuf  []opacity.Evaluation // reusable candidate-evaluation array
	insertBuf []graph.Edge         // reusable insertion-candidate list
	pool      []*workerState       // per-lane scratch, reused across scans
}

// evalBuf returns a zeroed evaluation slice of length n, reusing the
// state's backing array.
func (s *state) evalBuf(n int) []opacity.Evaluation {
	if cap(s.evalsBuf) < n {
		s.evalsBuf = make([]opacity.Evaluation, n)
	}
	s.evalsBuf = s.evalsBuf[:n]
	return s.evalsBuf
}

func newState(ctx context.Context, g *graph.Graph, opts Options) (*state, error) {
	work := g.Clone()
	types := opts.Types
	if types == nil {
		types = opacity.NewDegreeTypes(g.Degrees())
	}
	var m apsp.MutableStore
	if opts.Distances != nil {
		// Seed from the caller's prebuilt store through a copy-on-write
		// overlay: the run's incremental mutations land in the overlay's
		// sparse dirty set and never leak into the (shared, read-only)
		// original. Unlike the deep Clone this replaces, creating the
		// overlay is O(1) — a run that never mutates (budget already
		// exhausted, theta already satisfied, immediate cancellation)
		// allocates nothing proportional to the triangle, and one that
		// does pays only for the cells it actually changes.
		if opts.Distances.N() != g.N() {
			return nil, fmt.Errorf("anonymize: prebuilt store covers %d vertices, graph has %d", opts.Distances.N(), g.N())
		}
		if opts.Distances.L() != opts.L {
			return nil, fmt.Errorf("anonymize: prebuilt store is capped at L=%d, run wants L=%d", opts.Distances.L(), opts.L)
		}
		m = apsp.NewOverlay(opts.Distances)
	} else {
		m = apsp.Build(work, opts.L, apsp.BuildOptions{Workers: opts.Workers})
	}
	var deadline time.Time
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	return &state{
		ctx:      ctx,
		started:  time.Now(),
		deadline: deadline,
		opts:     opts,
		g:        work,
		m:        m,
		tr:       opacity.NewTracker(types, m),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		scratch:  apsp.NewScratch(g.N()),
		cands:    newRemovalCache(work, opts.L),
		removed:  graph.NewEdgeSet(),
	}, nil
}

func (s *state) result() Result {
	ev := s.tr.Evaluate()
	return Result{
		Graph:          s.g,
		Satisfied:      ev.MaxLO <= s.opts.Theta,
		FinalLO:        ev.MaxLO,
		Removed:        s.removedLog,
		Inserted:       s.insertedLog,
		Steps:          s.steps,
		CandidateEvals: s.evals,
		TimedOut:       s.timedOut,
		Cancelled:      s.cancelled,
	}
}

// overBudget reports whether the wall-clock budget is exhausted,
// latching TimedOut for the result.
func (s *state) overBudget() bool {
	if s.deadline.IsZero() || time.Now().Before(s.deadline) {
		return false
	}
	s.timedOut = true
	return true
}

// interrupted reports whether the run must stop between iterations:
// context cancellation (latching Cancelled) is checked first, then the
// wall-clock budget. Both interrupts share this one poll point, so a
// cancelled job stops within a single greedy iteration instead of
// burning CPU until its budget expires.
func (s *state) interrupted() bool {
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			s.cancelled = true
			return true
		default:
		}
	}
	return s.overBudget()
}

// runRemoval is the paper's Algorithm 4 (with look-ahead).
func (s *state) runRemoval() Result {
	cur := s.tr.Evaluate()
	for {
		if cur.MaxLO <= s.opts.Theta || s.g.M() == 0 {
			break
		}
		if s.opts.MaxSteps > 0 && s.steps >= s.opts.MaxSteps {
			break
		}
		if s.interrupted() {
			break
		}
		combo := s.chooseRemovalCombo(cur)
		if combo == nil {
			break
		}
		for _, e := range combo {
			s.applyRemoval(e)
		}
		cur = s.traceStep(false, combo)
		s.steps++
	}
	return s.result()
}

// runRemovalInsertion is the paper's Algorithm 5 (with look-ahead).
// Each iteration performs one greedy removal followed by one greedy
// insertion, never reinserting a removed edge nor re-removing an
// inserted one, so the edge count of the original graph is preserved.
func (s *state) runRemovalInsertion() Result {
	cur := s.tr.Evaluate()
	for {
		if cur.MaxLO <= s.opts.Theta || s.g.M() == 0 {
			break
		}
		if s.opts.MaxSteps > 0 && s.steps >= s.opts.MaxSteps {
			break
		}
		if s.interrupted() {
			break
		}
		// Removal phase: candidates are E' minus previously inserted
		// edges (Algorithm 5 line 4), which the candidate cache holds as
		// the original edges minus the removed ones.
		combo := s.chooseRemovalCombo(cur)
		if combo == nil {
			break // no removable edge left: stuck
		}
		for _, e := range combo {
			s.applyRemoval(e)
			s.removed.Add(e)
		}
		cur = s.traceStep(false, combo)
		// Insertion phase: candidates are absent edges minus previously
		// removed ones (Algorithm 5 line 12). Inserting can only create
		// new <=L pairs, so a combination of insertions is never
		// strictly better than its best single member; look-ahead
		// escalation is provably useless here and the phase always
		// chooses a single edge.
		if e, ok := s.chooseInsertion(); ok {
			s.applyInsertion(e)
			cur = s.traceStep(true, []graph.Edge{e})
		}
		s.steps++
	}
	return s.result()
}

// traceStep evaluates the tracker once after a committed move, emits
// the trace record when tracing is on plus the progress report when a
// Progress callback is set, and returns the evaluation so the
// caller's loop head can reuse it — one Evaluate per committed step,
// shared between the trace record and the next iteration.
func (s *state) traceStep(insert bool, edges []graph.Edge) opacity.Evaluation {
	ev := s.tr.Evaluate()
	if s.opts.Trace != nil {
		s.opts.Trace(Step{
			Index:  s.steps,
			Insert: insert,
			Edges:  append([]graph.Edge(nil), edges...),
			After:  ev,
		})
	}
	// The step being committed counts: s.steps increments after the
	// iteration completes, so report one past it.
	s.emitProgress(s.steps+1, ev.MaxLO)
	return ev
}

// emitProgress invokes the Progress callback, if any, with the
// current step count and opacity.
func (s *state) emitProgress(steps int, maxLO float64) {
	if s.opts.Progress == nil {
		return
	}
	s.opts.Progress(Progress{
		Steps:   steps,
		MaxLO:   maxLO,
		Elapsed: time.Since(s.started),
		Budget:  s.opts.Budget,
	})
}
