package apsp

import (
	"fmt"

	"repro/internal/graph"
)

// Engine names an APSP algorithm a caller may ask for. Every full build
// runs the same bit-parallel sweep (see sweep.go) and every algorithm
// yields identical cells, so an Engine is only a hint: the HTTP service
// still accepts and validates the names, and no build consults them.
// LPrunedFW and PointerFW (the paper's Algorithms 2 and 3) remain as
// callable oracles.
type Engine int

const (
	// EngineAuto is the default hint.
	EngineAuto Engine = iota
	// EngineBFS names bounded BFS.
	EngineBFS
	// EngineFW names the paper's Algorithm 2 (L-pruned Floyd-Warshall).
	EngineFW
	// EnginePointer names the paper's Algorithm 3 (pointer-based FW).
	EnginePointer
	// EngineBit names the bit-parallel BFS.
	EngineBit
)

// String names the engine as accepted by ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBFS:
		return "bfs"
	case EngineFW:
		return "fw"
	case EnginePointer:
		return "pointer"
	case EngineBit:
		return "bitbfs"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves an engine name ("auto", "bfs", "fw", "pointer",
// "bitbfs"; "" selects auto). The HTTP service uses it to reject
// unknown names.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "bfs", "bounded":
		return EngineBFS, nil
	case "fw", "lpruned":
		return EngineFW, nil
	case "pointer":
		return EnginePointer, nil
	case "bitbfs", "bit":
		return EngineBit, nil
	}
	return 0, fmt.Errorf("apsp: unknown engine %q (want auto, bfs, fw, pointer, or bitbfs)", s)
}

// BuildOptions sets the parallelism of a full distance-store build.
type BuildOptions struct {
	// Workers is the goroutine count the sweep deals its 64-source
	// batches to; values below 2 run sequentially, except that the
	// zero value on graphs with at least autoParallelMinN vertices
	// selects one worker per CPU. Every worker count yields a
	// bit-for-bit identical store.
	Workers int
}

// Build computes the L-capped distance store of g with the bit-parallel
// sweep, into the backing KindFor(L) selects.
func Build(g *graph.Graph, L int, o BuildOptions) MutableStore {
	c := g.Frozen()
	m := newTriangle(c.N(), L, KindFor(L))
	m.sweep(newSweeper(c, L, o.Workers))
	return m
}
