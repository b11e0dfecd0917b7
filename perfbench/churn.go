package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"

	"repro/api"
	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/opacity"
	"repro/internal/registry"
	"repro/internal/server"
)

// churnStep is one op's diff and the content address its child must
// get.
type churnStep struct {
	add, remove [][2]int
	id          string
}

// churnChain is one growing graph: its base version and the diff chain
// applied to its latest version, one step per op.
type churnChain struct {
	base   *graph.Graph
	baseID string
	steps  []churnStep
}

// churnResult is one op's answer: the child's id and a fingerprint of
// its opacity answer.
type churnResult struct {
	id string
	fp uint64
}

// churnWorkload is the write path: PATCH a small diff onto the latest
// version of a growing co-authorship graph, then ask the child's
// opacity, with persistence on. Ops round-robin over churnChains
// independent graphs, so one run averages over several base graphs.
type churnWorkload struct {
	L      int
	chains []churnChain
	fps    []uint64
	layer  map[string]float64
}

const (
	// churnChains is the number of independent graphs ops alternate over.
	churnChains = 3
	// churnOpsPerSecond bounds the precomputed diff chains: no op is
	// expected to finish faster than 1/churnOpsPerSecond seconds.
	churnOpsPerSecond = 150
)

func newChurn(tiny bool, seed int64, seconds int) (*churnWorkload, error) {
	n := 1000
	if tiny {
		n = 200
	}
	w := &churnWorkload{L: 2, layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	perChain := (64+churnOpsPerSecond*seconds)/churnChains + 1
	for c := 0; c < churnChains; c++ {
		ch, err := newChurnChain(dataset.Generate(dataset.ACM(n), rng.Int63()), perChain, rng)
		if err != nil {
			return nil, err
		}
		w.chains = append(w.chains, ch)
	}
	w.fps = make([]uint64, churnChains*perChain)
	return w, nil
}

// newChurnChain draws steps diffs of 2 removed edges and 2 added
// non-edges, each applied to the previous version.
func newChurnChain(base *graph.Graph, steps int, rng *rand.Rand) (churnChain, error) {
	n := base.N()
	ch := churnChain{base: base}
	// edges is kept in the registry's canonical order, so each child's
	// content address is one Digest away.
	edges, err := registry.Canonicalize(n, apiEdges(base))
	if err != nil {
		return ch, err
	}
	ch.baseID = registry.Digest(n, edges)
	present := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		present[e] = true
	}
	for s := 0; s < steps; s++ {
		var st churnStep
		for len(st.remove) < 2 {
			j := rng.Intn(len(edges))
			st.remove = append(st.remove, edges[j])
			delete(present, edges[j])
			edges = append(edges[:j], edges[j+1:]...)
		}
		for len(st.add) < 2 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u > v {
				u, v = v, u
			}
			e := [2]int{u, v}
			if u == v || present[e] || e == st.remove[0] || e == st.remove[1] {
				continue
			}
			st.add = append(st.add, e)
			present[e] = true
			j := sort.Search(len(edges), func(k int) bool {
				return edges[k][0] > u || (edges[k][0] == u && edges[k][1] > v)
			})
			edges = append(edges, [2]int{})
			copy(edges[j+1:], edges[j:])
			edges[j] = e
		}
		st.id = registry.Digest(n, edges)
		ch.steps = append(ch.steps, st)
	}
	return ch, nil
}

// at maps global op i to its chain and step.
func (w *churnWorkload) at(i int) (*churnChain, int) {
	return &w.chains[i%churnChains], i / churnChains
}

func (w *churnWorkload) setup(ctx context.Context, tr *tracer, dir string) (*system, error) {
	sys, err := startSystem(server.Config{DataDir: dir}, 1, false, tr)
	if err != nil {
		return nil, err
	}
	for _, ch := range w.chains {
		if err := register(ctx, sys, ch.base, ch.baseID); err != nil {
			sys.close()
			return nil, err
		}
		if _, err := sys.api.Opacity(ctx, api.OpacityRequest{GraphRef: ch.baseID, L: w.L, Cache: "off"}); err != nil {
			sys.close()
			return nil, fmt.Errorf("first acquire: %w", err)
		}
	}
	return sys, nil
}

// A pass is 16 steps of every chain: a multiple of the overlay
// compaction depth (4), so every window ends at the same point of each
// chain's compaction cycle.
func (w *churnWorkload) cycle() int  { return 16 * churnChains }
func (w *churnWorkload) warmup() int { return 8 * churnChains }
func (w *churnWorkload) maxOps() int { return len(w.fps) }

func (w *churnWorkload) do(ctx context.Context, sys *system, i int) (any, error) {
	ch, s := w.at(i)
	parent := ch.baseID
	if s > 0 {
		parent = ch.steps[s-1].id
	}
	st := ch.steps[s]
	child, err := sys.api.Graphs.Patch(subRequest(ctx, 0), parent, api.GraphPatchRequest{Add: st.add, Remove: st.remove})
	if err != nil {
		return nil, fmt.Errorf("patch: %w", err)
	}
	rep, err := sys.api.Opacity(subRequest(ctx, 1), api.OpacityRequest{GraphRef: child.ID, L: w.L, Cache: "off"})
	if err != nil {
		return nil, fmt.Errorf("child opacity: %w", err)
	}
	return churnResult{id: child.ID, fp: fingerprint(rep)}, nil
}

func (w *churnWorkload) check(i int, resp any) error {
	got := resp.(churnResult)
	ch, s := w.at(i)
	if got.id != ch.steps[s].id {
		return fmt.Errorf("churn op %d: child id %s, want %s", i, got.id, ch.steps[s].id)
	}
	w.fps[i] = got.fp
	return nil
}

// verify rebuilds every child from the recorded diff chains and checks
// its opacity answer against a fresh opacity.NewReport, on two workers.
func (w *churnWorkload) verify(ops int) (int, []error) {
	type child struct {
		i int
		g *graph.Graph
	}
	work := make(chan child)
	bad := make([]bool, ops)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				bad[c.i] = fingerprint(opacityAnswer(w.L, opacity.NewReport(c.g, nil, w.L))) != w.fps[c.i]
			}
		}()
	}
	var errs []error
	for c := range w.chains {
		g := w.chains[c].base.Clone()
		for i := c; i < ops; i += churnChains {
			st := w.chains[c].steps[i/churnChains]
			d, err := graph.NewDiff(g.N(), st.add, st.remove)
			if err == nil {
				err = d.Apply(g)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("churn verify op %d: %w", i, err))
				break
			}
			if w.fps[i] != 0 { // a zero fingerprint marks an op that failed and is already counted
				work <- child{i, g.Clone()}
			}
		}
	}
	close(work)
	wg.Wait()
	n := len(errs)
	for i, b := range bad {
		if b {
			n++
			errs = append(errs, fmt.Errorf("churn op %d: child opacity differs from a fresh build", i))
		}
	}
	return n, errs
}

// fingerprint hashes an opacity answer, so churn can keep one word per
// op and compare with the oracle after the window.
func fingerprint(r *api.OpacityResponse) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(r.L))
	word(math.Float64bits(r.MaxOpacity))
	for _, t := range r.Types {
		h.Write([]byte(t.Label))
		word(uint64(t.Within))
		word(uint64(t.Total))
		word(math.Float64bits(t.Opacity))
	}
	return h.Sum64()
}

// churnReplayOps bounds the in-process replay of the traced run.
const churnReplayOps = 48

// replay walks the first chain in-process: through a persistent
// registry (mutate, child acquire, child report and sweep), then
// through apsp.RepairStore alone.
func (w *churnWorkload) replay(_ context.Context, lr *layerRun, dir string, ops int) error {
	ch := &w.chains[0]
	if _, err := lr.graphKit(ch.base, w.L, kitOptions{edges: 20}); err != nil {
		return err
	}
	steps := min(ops/churnChains, churnReplayOps)
	reg := registry.New(registry.Config{Dir: filepath.Join(dir, "replay")})
	parent, _, err := reg.Put(ch.base.N(), apiEdges(ch.base))
	if err != nil {
		return err
	}
	parent.Distances(w.L, apsp.EngineAuto, apsp.KindCompact)
	for s := 0; s < steps; s++ {
		var child *registry.Graph
		lr.timed("registry.mutate_ms", "registry.Registry.Mutate", func() {
			child, _, err = reg.Mutate(parent, ch.steps[s].add, ch.steps[s].remove)
		})
		if err != nil {
			return fmt.Errorf("replay mutate: %w", err)
		}
		var st apsp.Store
		lr.timed("registry.child_acquire_ms", "registry.Graph.Distances(child)", func() {
			st, _ = child.Distances(w.L, apsp.EngineAuto, apsp.KindCompact)
		})
		lr.timed("opacity.report_child_ms", "opacity.NewReportFromStore(child)", func() {
			sink += opacity.NewReportFromStore(child.Degrees(), st).N
		})
		lr.timed("apsp.sweep_overlay_ms", "apsp.Store.EachPair(child)", func() { sink += sweep(st) })
		parent = child
	}
	g := ch.base.Clone()
	var st apsp.Store = apsp.Build(g, w.L, apsp.BuildOptions{})
	for s := 0; s < steps; s++ {
		d, err := graph.NewDiff(g.N(), ch.steps[s].add, ch.steps[s].remove)
		if err == nil {
			err = d.Apply(g)
		}
		if err != nil {
			return fmt.Errorf("replay diff %d: %w", s, err)
		}
		var next apsp.Store
		ok := false
		lr.timed("apsp.repair_ms", "apsp.RepairStore", func() { next, ok = apsp.RepairStore(st, g, d, apsp.RepairOptions{}) })
		if !ok {
			next = apsp.Build(g, w.L, apsp.BuildOptions{})
		}
		lr.timed("apsp.encode_ms", "apsp.MarshalStore(child)", func() {
			b, _ := apsp.MarshalStore(next)
			sink += len(b)
		})
		st = next
	}
	for _, m := range []string{"registry.mutate_ms", "registry.child_acquire_ms", "opacity.report_child_ms"} {
		w.layer[m] = median(lr.samples[m])
	}
	return nil
}

// compute is the replayed mutate, child acquire and child report.
func (w *churnWorkload) compute(int) (float64, bool) {
	if len(w.layer) == 0 {
		return 0, false
	}
	return w.layer["registry.mutate_ms"] + w.layer["registry.child_acquire_ms"] + w.layer["opacity.report_child_ms"], true
}
