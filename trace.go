package lopacity

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/anonymize"
	"repro/internal/apsp"
)

// TraceStep is one committed greedy move in an anonymization run, as
// emitted by the audit trace (Options.TraceWriter).
type TraceStep struct {
	// Step is the 0-based greedy iteration index.
	Step int `json:"step"`
	// Op is "remove" or "insert".
	Op string `json:"op"`
	// Edges lists the one or more edges of the committed combination
	// (more than one only under look-ahead escalation).
	Edges [][2]int `json:"edges"`
	// MaxOpacity is the graph-level maximum opacity after the move.
	MaxOpacity float64 `json:"maxOpacity"`
	// Population counts the types attaining MaxOpacity after the move
	// (the paper's N(lo)).
	Population int `json:"population"`
}

// traceFunc adapts a JSONL writer to the internal trace hook. Encoding
// errors latch into *errp so the caller can surface them after the run.
func traceFunc(w io.Writer, errp *error) func(anonymize.Step) {
	enc := json.NewEncoder(w)
	return func(s anonymize.Step) {
		op := "remove"
		if s.Insert {
			op = "insert"
		}
		step := TraceStep{
			Step:       s.Index,
			Op:         op,
			Edges:      toPairs(s.Edges),
			MaxOpacity: s.After.MaxLO,
			Population: s.After.Population,
		}
		if err := enc.Encode(step); err != nil && *errp == nil {
			*errp = fmt.Errorf("lopacity: writing trace: %w", err)
		}
	}
}

// ReplayOptions configures ReplayTrace.
type ReplayOptions struct {
	// L and Theta are the privacy target the trace claims to reach.
	L     int
	Theta float64
	// SkipOpacityCheck disables the per-step recomputation of
	// MaxOpacity (structure checks only), trading assurance for speed
	// on large graphs.
	SkipOpacityCheck bool
	// Published, when non-nil, is compared edge-for-edge against the
	// replayed final graph.
	Published *Graph
}

// ReplayReport summarizes a verified trace.
type ReplayReport struct {
	// Steps, Removals, and Insertions count the replayed operations.
	Steps, Removals, Insertions int
	// FinalOpacity is the max L-opacity of the replayed graph against
	// the original degrees.
	FinalOpacity float64
	// Graph is the replayed final graph.
	Graph *Graph
}

// ReplayTrace verifies an anonymization audit trail: it replays the
// JSONL trace from r (as produced by Options.TraceWriter) against the
// original graph and checks that every operation is applicable (no
// removal of an absent edge, no insertion of a present one), that each
// step's recorded MaxOpacity matches an independent recomputation
// (unless SkipOpacityCheck), that the final graph equals
// opts.Published when given, and that the final graph satisfies
// L-opacity at opts.Theta. The original graph is not modified.
//
// This is the verification core behind cmd/lopreplay and the service's
// /v1/replay endpoint: a data vendor can hand the original, the trace,
// and the published graph to an auditor who re-derives the privacy
// guarantee without trusting the anonymizer's own accounting.
func ReplayTrace(original *Graph, r io.Reader, opts ReplayOptions) (ReplayReport, error) {
	if original == nil {
		return ReplayReport{}, errors.New("lopacity: nil graph")
	}
	if opts.L < 1 {
		return ReplayReport{}, fmt.Errorf("lopacity: L must be >= 1, got %d", opts.L)
	}
	if opts.L > apsp.MaxL {
		return ReplayReport{}, fmt.Errorf("lopacity: L must be <= %d, got %d", apsp.MaxL, opts.L)
	}
	g := original.Clone()
	rep := ReplayReport{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var step TraceStep
		if err := json.Unmarshal(line, &step); err != nil {
			return rep, fmt.Errorf("lopacity: step %d: invalid trace line: %w", rep.Steps, err)
		}
		for _, e := range step.Edges {
			switch step.Op {
			case "remove":
				if !g.RemoveEdge(e[0], e[1]) {
					return rep, fmt.Errorf("lopacity: step %d: removal of absent edge %v", step.Step, e)
				}
				rep.Removals++
			case "insert":
				if !g.AddEdge(e[0], e[1]) {
					return rep, fmt.Errorf("lopacity: step %d: insertion of present edge %v", step.Step, e)
				}
				rep.Insertions++
			default:
				return rep, fmt.Errorf("lopacity: step %d: unknown op %q", step.Step, step.Op)
			}
		}
		if !opts.SkipOpacityCheck {
			got := g.OpacityAgainst(opts.L, original).MaxOpacity
			if diff := got - step.MaxOpacity; diff > 1e-9 || diff < -1e-9 {
				return rep, fmt.Errorf("lopacity: step %d: trace records maxOpacity %.6f, replay computes %.6f",
					step.Step, step.MaxOpacity, got)
			}
		}
		rep.Steps++
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}

	if opts.Published != nil {
		if err := sameEdges(g, opts.Published); err != nil {
			return rep, fmt.Errorf("lopacity: replayed graph differs from published: %w", err)
		}
	}
	rep.Graph = g
	rep.FinalOpacity = g.OpacityAgainst(opts.L, original).MaxOpacity
	if rep.FinalOpacity > opts.Theta {
		return rep, fmt.Errorf("lopacity: final graph violates L-opacity: %.4f > %.4f", rep.FinalOpacity, opts.Theta)
	}
	return rep, nil
}

// sameEdges reports the first difference between two graphs' edge sets.
func sameEdges(a, b *Graph) error {
	if a.N() != b.N() {
		return fmt.Errorf("vertex counts differ: %d vs %d", a.N(), b.N())
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return fmt.Errorf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			return fmt.Errorf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	return nil
}
