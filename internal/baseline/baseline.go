// Package baseline reimplements the competing heuristics of Zhang and
// Zhang, "Edge anonymity in social network graphs" (CSE 2009), which the
// paper compares against in Section 6: GADED-Rand, GADED-Max, and GADES.
//
// Zhang and Zhang's model limits an adversary's confidence that a SINGLE
// edge exists between two individuals — exactly the L-opacity model
// restricted to L = 1 — so, as in the paper, the comparison is only
// defined at L = 1 and all three heuristics are evaluated against the
// same degree-pair type system frozen from the original graph.
//
// Because L = 1 makes "pairs within L" precisely the edge set, the
// per-type disclosure counts are maintained directly from adjacency with
// no distance matrix at all.
package baseline

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/opacity"
)

// Algorithm selects one of the three Zhang-Zhang heuristics.
type Algorithm int

const (
	// GADEDRand removes, at each step, an edge chosen uniformly at
	// random among the edges participating in a disclosure above theta.
	GADEDRand Algorithm = iota
	// GADEDMax removes, at each step, the edge giving the maximum
	// reduction of the maximum link disclosure, tie-broken by the
	// minimum total link disclosure.
	GADEDMax
	// GADES swaps, at each step, a pair of edges so as to reduce the
	// maximum link disclosure, preserving every vertex degree; it fails
	// when no swap reduces the maximum.
	GADES
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case GADEDRand:
		return "GADED-Rand"
	case GADEDMax:
		return "GADED-Max"
	case GADES:
		return "GADES"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures a baseline run.
type Options struct {
	// Theta is the confidence threshold; the run stops when the maximum
	// single-edge disclosure is <= Theta.
	Theta float64
	// Seed drives random edge selection (GADED-Rand) and tie-breaking.
	Seed int64
	// MaxSteps caps iterations; 0 means unlimited.
	MaxSteps int
	// Budget bounds the run's wall-clock time; 0 means unlimited. When
	// exhausted, the run stops and returns the best-effort graph with
	// TimedOut set. GADES in particular scans O(|E|^2) edge pairs per
	// iteration, which is impractical unbudgeted on dense samples.
	Budget time.Duration
}

// Swap records one GADES edge swap: the two removed edges and the two
// inserted ones.
type Swap struct {
	Removed  [2]graph.Edge
	Inserted [2]graph.Edge
}

// Result reports a baseline run's outcome.
type Result struct {
	Graph     *graph.Graph
	Satisfied bool
	FinalLO   float64
	Removed   []graph.Edge
	Swaps     []Swap
	Steps     int
	// TimedOut reports that Options.Budget expired before the target
	// was reached.
	TimedOut bool
}

// Distortion returns the paper's Equation 1 relative to the original
// graph.
func (r Result) Distortion(original *graph.Graph) float64 {
	if original.M() == 0 {
		return 0
	}
	return float64(graph.SymmetricDifferenceSize(original, r.Graph)) / float64(original.M())
}

// Run executes the selected Zhang-Zhang heuristic on a clone of g.
func Run(g *graph.Graph, alg Algorithm, opts Options) (Result, error) {
	if opts.Theta < 0 || opts.Theta > 1 {
		return Result{}, fmt.Errorf("baseline: theta must be in [0, 1], got %v", opts.Theta)
	}
	s := &l1state{
		g:     g.Clone(),
		types: opacity.NewDegreeTypes(g.Degrees()),
		rng:   rand.New(rand.NewSource(opts.Seed)),
		opts:  opts,
	}
	if opts.Budget > 0 {
		s.deadline = time.Now().Add(opts.Budget)
	}
	s.counts = make([]int, s.types.NumTypes())
	s.g.EachEdge(func(u, v int) { s.counts[s.types.TypeOf(u, v)]++ })
	switch alg {
	case GADEDRand:
		return s.runRand(), nil
	case GADEDMax:
		return s.runMax(), nil
	case GADES:
		return s.runSwap(), nil
	}
	return Result{}, fmt.Errorf("baseline: unknown algorithm %d", alg)
}

// l1state tracks per-type single-edge disclosure counts: at L=1 the
// pairs within distance L are exactly the current edges.
type l1state struct {
	g      *graph.Graph
	types  *opacity.ClassTypes
	counts []int
	rng    *rand.Rand
	opts   Options

	removed []graph.Edge
	swaps   []Swap
	steps   int

	deadline time.Time // zero when Options.Budget is unset
	timedOut bool
}

// eval returns the current maximum disclosure and the total disclosure
// (the sum of all per-type ratios, Zhang-Zhang's secondary criterion).
func (s *l1state) eval() (maxLO, total float64) {
	for id, c := range s.counts {
		t := s.types.Total(id)
		if t == 0 {
			continue
		}
		lo := float64(c) / float64(t)
		total += lo
		if lo > maxLO {
			maxLO = lo
		}
	}
	return maxLO, total
}

// evalAfter computes (maxLO, total) as if the counts were adjusted by
// delta on the given type IDs, without mutating them.
func (s *l1state) evalAfter(adjust map[int]int) (maxLO, total float64) {
	for id, c := range s.counts {
		t := s.types.Total(id)
		if t == 0 {
			continue
		}
		lo := float64(c+adjust[id]) / float64(t)
		total += lo
		if lo > maxLO {
			maxLO = lo
		}
	}
	return maxLO, total
}

func (s *l1state) removeEdge(e graph.Edge) {
	s.g.RemoveEdge(e.U, e.V)
	s.counts[s.types.TypeOf(e.U, e.V)]--
	s.removed = append(s.removed, e)
}

func (s *l1state) result(satisfied bool) Result {
	maxLO, _ := s.eval()
	return Result{
		Graph:     s.g,
		Satisfied: satisfied && maxLO <= s.opts.Theta,
		FinalLO:   maxLO,
		Removed:   s.removed,
		Swaps:     s.swaps,
		Steps:     s.steps,
		TimedOut:  s.timedOut,
	}
}

// overBudget reports whether the wall-clock budget is exhausted,
// latching TimedOut for the result.
func (s *l1state) overBudget() bool {
	if s.deadline.IsZero() || time.Now().Before(s.deadline) {
		return false
	}
	s.timedOut = true
	return true
}

func (s *l1state) capped() bool {
	if s.opts.MaxSteps > 0 && s.steps >= s.opts.MaxSteps {
		return true
	}
	return s.overBudget()
}

// runRand implements GADED-Rand: random removals among disclosing edges.
func (s *l1state) runRand() Result {
	for {
		maxLO, _ := s.eval()
		if maxLO <= s.opts.Theta || s.g.M() == 0 || s.capped() {
			break
		}
		// Edges participating in a disclosure above theta: edges whose
		// type's disclosure exceeds theta.
		var pool []graph.Edge
		s.g.EachEdge(func(u, v int) {
			id := s.types.TypeOf(u, v)
			if t := s.types.Total(id); t > 0 && float64(s.counts[id])/float64(t) > s.opts.Theta {
				pool = append(pool, graph.E(u, v))
			}
		})
		if len(pool) == 0 {
			break
		}
		s.removeEdge(pool[s.rng.Intn(len(pool))])
		s.steps++
	}
	return s.result(true)
}

// runMax implements GADED-Max: remove the edge with the maximum
// reduction of the maximum disclosure, tie-broken by the minimum total
// disclosure after removal.
func (s *l1state) runMax() Result {
	adjust := map[int]int{}
	for {
		maxLO, _ := s.eval()
		if maxLO <= s.opts.Theta || s.g.M() == 0 || s.capped() {
			break
		}
		var (
			best      graph.Edge
			bestMax   = 2.0
			bestTotal = 0.0
			found     bool
			ties      int
		)
		for _, e := range s.g.Edges() {
			id := s.types.TypeOf(e.U, e.V)
			for k := range adjust {
				delete(adjust, k)
			}
			adjust[id] = -1
			m, tot := s.evalAfter(adjust)
			switch {
			case !found || m < bestMax || (m == bestMax && tot < bestTotal):
				best, bestMax, bestTotal, found = e, m, tot, true
				ties = 1
			case m == bestMax && tot == bestTotal:
				ties++
				if s.rng.Float64() < 1.0/float64(ties) {
					best = e
				}
			}
		}
		if !found {
			break
		}
		s.removeEdge(best)
		s.steps++
	}
	return s.result(true)
}

// runSwap implements GADES: each iteration searches for the edge swap
// most reducing the maximum disclosure; degrees are preserved by
// construction. The run fails (Satisfied=false) as soon as no swap
// strictly reduces the maximum — the behavior the paper observes when
// reporting that GADES "cannot find any L-opaque graph unless returning
// an empty graph".
func (s *l1state) runSwap() Result {
	adjust := map[int]int{}
	for {
		maxLO, _ := s.eval()
		if maxLO <= s.opts.Theta || s.capped() {
			break
		}
		edges := s.g.Edges()
		var (
			bestSwap  Swap
			bestMax   = maxLO
			bestTotal = 0.0
			found     bool
			ties      int
		)
		for i := 0; i < len(edges); i++ {
			if i%64 == 0 && s.overBudget() {
				return s.result(false) // budget expired mid-scan
			}
			for j := i + 1; j < len(edges); j++ {
				e1, e2 := edges[i], edges[j]
				if e1.Touches(e2.U) || e1.Touches(e2.V) {
					continue // swap needs four distinct endpoints
				}
				for _, cand := range swapRewirings(e1, e2) {
					if s.g.HasEdge(cand[0].U, cand[0].V) || s.g.HasEdge(cand[1].U, cand[1].V) {
						continue
					}
					for k := range adjust {
						delete(adjust, k)
					}
					adjust[s.types.TypeOf(e1.U, e1.V)]--
					adjust[s.types.TypeOf(e2.U, e2.V)]--
					adjust[s.types.TypeOf(cand[0].U, cand[0].V)]++
					adjust[s.types.TypeOf(cand[1].U, cand[1].V)]++
					m, tot := s.evalAfter(adjust)
					if m >= maxLO {
						continue // must strictly reduce the maximum
					}
					sw := Swap{Removed: [2]graph.Edge{e1, e2}, Inserted: cand}
					switch {
					case !found || m < bestMax || (m == bestMax && tot < bestTotal):
						bestSwap, bestMax, bestTotal, found = sw, m, tot, true
						ties = 1
					case m == bestMax && tot == bestTotal:
						ties++
						if s.rng.Float64() < 1.0/float64(ties) {
							bestSwap = sw
						}
					}
				}
			}
		}
		if !found {
			return s.result(false) // stuck: no reducing swap exists
		}
		s.applySwap(bestSwap)
		s.steps++
	}
	return s.result(true)
}

// swapRewirings returns the two possible rewirings of an edge pair
// {a,b}, {c,d}: {a,c}+{b,d} and {a,d}+{b,c}.
func swapRewirings(e1, e2 graph.Edge) [][2]graph.Edge {
	return [][2]graph.Edge{
		{graph.E(e1.U, e2.U), graph.E(e1.V, e2.V)},
		{graph.E(e1.U, e2.V), graph.E(e1.V, e2.U)},
	}
}

func (s *l1state) applySwap(sw Swap) {
	for _, e := range sw.Removed {
		s.g.RemoveEdge(e.U, e.V)
		s.counts[s.types.TypeOf(e.U, e.V)]--
	}
	for _, e := range sw.Inserted {
		s.g.AddEdge(e.U, e.V)
		s.counts[s.types.TypeOf(e.U, e.V)]++
	}
	s.swaps = append(s.swaps, sw)
}
