package satreduce

import (
	"fmt"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// ReductionL is the path-length threshold of the constructed
// L-opacification instance (Theorem 1 fixes L = 3: clause pairs sit at
// distance 3 through their variable edge).
const ReductionL = 3

// Instance is the L-opacification instance constructed from a 3-SAT
// formula by the paper's Theorem 1 (illustrated in its Figure 3).
type Instance struct {
	Formula Formula
	// G is the gadget graph.
	G *graph.Graph
	// Budget is N, the number of variables: the reduction asks whether
	// the instance is solvable with at most Budget edge removals.
	Budget int
	// PosEdge[v] and NegEdge[v] are the two edges of variable v+1
	// (0-based slice): removing PosEdge encodes assigning true,
	// removing NegEdge encodes false.
	PosEdge, NegEdge []graph.Edge

	types    *opacity.FuncTypes
	pairType map[[2]int]int
}

// Build constructs the Theorem 1 gadget for f.
//
// For each variable v two disjoint edges (vi, vj) and (v'i, v'j) are
// created, both of vertex-pair type T_v. For each occurrence of v in a
// clause Ck, a fresh vertex pair (Ak, Bk) of type T_Ck is appended to
// the positive edge when the literal is positive (Ak adjacent to vi,
// Bk to vj) and to the negated edge otherwise. A clause pair is then at
// geodesic distance 3 exactly while its variable edge survives.
func Build(f Formula) *Instance {
	inst := &Instance{
		Formula:  f,
		Budget:   f.NumVars,
		pairType: make(map[[2]int]int),
	}
	numTypes := f.NumVars + len(f.Clauses)
	totals := make([]int, numTypes)
	labels := make([]string, numTypes)
	// Vertex budget: 4 per variable + 2 per literal occurrence.
	n := 4*f.NumVars + 6*len(f.Clauses)
	g := graph.New(n)
	next := 0
	alloc := func() int { next++; return next - 1 }

	inst.PosEdge = make([]graph.Edge, f.NumVars)
	inst.NegEdge = make([]graph.Edge, f.NumVars)
	posEnds := make([][2]int, f.NumVars)
	negEnds := make([][2]int, f.NumVars)
	for v := 0; v < f.NumVars; v++ {
		vi, vj := alloc(), alloc()
		vpi, vpj := alloc(), alloc()
		g.AddEdge(vi, vj)
		g.AddEdge(vpi, vpj)
		inst.PosEdge[v] = graph.E(vi, vj)
		inst.NegEdge[v] = graph.E(vpi, vpj)
		posEnds[v] = [2]int{vi, vj}
		negEnds[v] = [2]int{vpi, vpj}
		inst.setPairType(vi, vj, v)
		inst.setPairType(vpi, vpj, v)
		totals[v] = 2
		labels[v] = fmt.Sprintf("var%d", v+1)
	}
	for ci, clause := range f.Clauses {
		typeID := f.NumVars + ci
		labels[typeID] = fmt.Sprintf("clause%d", ci+1)
		for _, lit := range clause {
			v := lit.Var() - 1
			ends := posEnds[v]
			if lit.Negated() {
				ends = negEnds[v]
			}
			ak, bk := alloc(), alloc()
			g.AddEdge(ak, ends[0])
			g.AddEdge(ends[1], bk)
			inst.setPairType(ak, bk, typeID)
			totals[typeID]++
		}
	}
	inst.G = g
	inst.types = opacity.NewFuncTypes(inst.typeOf, totals, labels)
	return inst
}

func (inst *Instance) setPairType(u, v, id int) {
	if u > v {
		u, v = v, u
	}
	inst.pairType[[2]int{u, v}] = id
}

func (inst *Instance) typeOf(u, v int) int {
	if u > v {
		u, v = v, u
	}
	if id, ok := inst.pairType[[2]int{u, v}]; ok {
		return id
	}
	return -1
}

// Types exposes the instance's vertex-pair type system.
func (inst *Instance) Types() opacity.TypeAssigner { return inst.types }

// MaxLO computes the maximum opacity of the gadget graph after removing
// the given edges (the graph itself is not modified).
func (inst *Instance) MaxLO(removals []graph.Edge) float64 {
	h := inst.G.Clone()
	for _, e := range removals {
		if !h.RemoveEdge(e.U, e.V) {
			panic(fmt.Sprintf("satreduce: removal of absent edge %v", e))
		}
	}
	tr := opacity.NewTracker(inst.types, apsp.Build(h, ReductionL, apsp.BuildOptions{}))
	return tr.Evaluate().MaxLO
}

// Opacified reports whether removing the given edges leaves every type
// below full disclosure (the Theorem 1 goal: max LO < 1 with L = 3).
func (inst *Instance) Opacified(removals []graph.Edge) bool {
	return inst.MaxLO(removals) < 1
}

// RemovalsForAssignment translates a satisfying assignment (1-based)
// into the Theorem's removal set: remove the positive edge of every
// true variable and the negated edge of every false one.
func (inst *Instance) RemovalsForAssignment(assign []bool) []graph.Edge {
	out := make([]graph.Edge, inst.Formula.NumVars)
	for v := 0; v < inst.Formula.NumVars; v++ {
		if assign[v+1] {
			out[v] = inst.PosEdge[v]
		} else {
			out[v] = inst.NegEdge[v]
		}
	}
	return out
}

// AssignmentForRemovals inverts RemovalsForAssignment; it returns false
// when the removal set is not of the one-edge-per-variable form.
func (inst *Instance) AssignmentForRemovals(removals []graph.Edge) ([]bool, bool) {
	if len(removals) != inst.Formula.NumVars {
		return nil, false
	}
	assign := make([]bool, inst.Formula.NumVars+1)
	seen := make([]bool, inst.Formula.NumVars)
	for _, e := range removals {
		matched := false
		for v := 0; v < inst.Formula.NumVars; v++ {
			switch e.Normalize() {
			case inst.PosEdge[v]:
				assign[v+1] = true
				matched = true
			case inst.NegEdge[v]:
				assign[v+1] = false
				matched = true
			default:
				continue
			}
			if seen[v] {
				return nil, false
			}
			seen[v] = true
			break
		}
		if !matched {
			return nil, false
		}
	}
	for _, s := range seen {
		if !s {
			return nil, false
		}
	}
	return assign, true
}

// SolveByReduction decides the instance exactly: it enumerates the 2^N
// canonical removal sets (one edge per variable, the only candidates
// that can work within the budget, as argued in the Theorem 1 proof)
// and returns a witnessing removal set if one opacifies the gadget.
// Exponential by design — the reduction proves hardness; this solver
// exists to validate the construction on small formulas.
func (inst *Instance) SolveByReduction() ([]graph.Edge, bool) {
	nv := inst.Formula.NumVars
	if nv > 20 {
		panic("satreduce: SolveByReduction limited to 20 variables")
	}
	assign := make([]bool, nv+1)
	for mask := 0; mask < 1<<nv; mask++ {
		for v := 0; v < nv; v++ {
			assign[v+1] = mask&(1<<v) != 0
		}
		removals := inst.RemovalsForAssignment(assign)
		if inst.Opacified(removals) {
			return removals, true
		}
	}
	return nil, false
}
