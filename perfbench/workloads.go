package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/api"
	"repro/internal/anonymize"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/opacity"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/server"
)

// workload is one traffic mix. Its constructor generates the inputs
// and their oracle answers from the seed; nothing it does there is
// timed.
type workload interface {
	// setup starts the system under test and performs its start-up
	// work: servers, router, graph registration, first store acquires,
	// and any cache warm-up. It is timed as setup_s.
	setup(ctx context.Context, tr *tracer, dir string) (*system, error)
	// cycle is the number of ops in one pass over the input pool; the
	// measured window runs whole passes.
	cycle() int
	// warmup is the number of untimed ops run before the window.
	warmup() int
	// maxOps caps the global op index (0 for no cap).
	maxOps() int
	// do sends op i and returns the decoded answer; only do is timed.
	do(ctx context.Context, sys *system, i int) (any, error)
	// check compares op i's answer with its oracle.
	check(i int, resp any) error
	// verify re-checks ops [0, ops) after the window, for answers whose
	// oracle is too costly to compute up front; it returns the number
	// of ops found wrong and their errors.
	verify(ops int) (int, []error)
	// replay calls the modules' public functions in-process on the
	// workload's inputs, timing each call as a per-layer sample.
	replay(ctx context.Context, lr *layerRun, dir string, ops int) error
	// compute returns the replayed in-process compute of op i in ms,
	// the part of its handler time that is not serving overhead.
	compute(i int) (float64, bool)
}

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string { return []string{"greedy", "audit", "churn", "routed"} }

// newWorkload builds the named workload's inputs and oracles.
func newWorkload(o options) (workload, error) {
	tiny := o.scale == "tiny"
	switch o.workload {
	case "greedy":
		return newGreedy(tiny, o.seed)
	case "audit":
		return newAudit(tiny, o.seed)
	case "churn":
		return newChurn(tiny, o.seed, o.seconds)
	case "routed":
		return newRouted(o.seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
}

// subSeed derives an independent generator seed per workload and role,
// so workloads never share random streams.
func subSeed(seed int64, role int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(role)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

// register uploads g and checks the server answers with its content
// address.
func register(ctx context.Context, sys *system, g *graph.Graph, want string) error {
	resp, err := sys.api.Graphs.Register(ctx, api.GraphRegisterRequest{Graph: &api.Graph{N: g.N(), Edges: apiEdges(g)}})
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if resp.ID != want {
		return fmt.Errorf("register: id %s, want %s", resp.ID, want)
	}
	return nil
}

// digestOf is the registry content address of g.
func digestOf(g *graph.Graph) (string, error) {
	canon, err := registry.Canonicalize(g.N(), apiEdges(g))
	if err != nil {
		return "", err
	}
	return registry.Digest(g.N(), canon), nil
}

// opacityAnswer converts a library report to the wire answer the
// server gives for it.
func opacityAnswer(L int, rep opacity.Report) *api.OpacityResponse {
	out := &api.OpacityResponse{L: L, MaxOpacity: rep.MaxLO}
	for _, t := range rep.ByType {
		out.Types = append(out.Types, api.OpacityType{Label: t.Label, Within: t.Within, Total: t.Total, Opacity: t.Opacity})
	}
	return out
}

// sameOpacity reports whether two opacity answers are identical.
func sameOpacity(a, b *api.OpacityResponse) bool {
	if a.L != b.L || a.MaxOpacity != b.MaxOpacity || len(a.Types) != len(b.Types) {
		return false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- greedy

// greedyWorkload is the paper's edge-removal loop (Algorithm 4) run to
// completion through POST /v1/anonymize, one request per pool graph.
type greedyWorkload struct {
	L      int
	theta  float64
	graphs []*graph.Graph
	ids    []string
	seeds  []int64
	want   []*anonymize.Result
	runMS  map[int]float64
}

func newGreedy(tiny bool, seed int64) (*greedyWorkload, error) {
	spec, _ := dataset.ByKey("epinions100")
	pool := 21
	if tiny {
		spec = dataset.SampleSpec{Key: "tiny", N: 30, M: 40, AvgDegree: 2.67, DegreeStdD: 1.5, AvgClusterC: 0.05}
		pool = 3
	}
	w := &greedyWorkload{L: 2, theta: 0, runMS: map[int]float64{}}
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	for i := 0; i < pool; i++ {
		g := dataset.Generate(spec, rng.Int63())
		id, err := digestOf(g)
		if err != nil {
			return nil, err
		}
		s := rng.Int63n(1 << 31)
		res, err := anonymize.Run(g, anonymize.Options{L: w.L, Theta: w.theta, Seed: s})
		if err != nil {
			return nil, fmt.Errorf("greedy oracle: %w", err)
		}
		w.graphs = append(w.graphs, g)
		w.ids = append(w.ids, id)
		w.seeds = append(w.seeds, s)
		w.want = append(w.want, &res)
	}
	return w, nil
}

func (w *greedyWorkload) setup(ctx context.Context, tr *tracer, _ string) (*system, error) {
	sys, err := startSystem(server.Config{}, 1, false, tr)
	if err != nil {
		return nil, err
	}
	for i, g := range w.graphs {
		if err := register(ctx, sys, g, w.ids[i]); err != nil {
			sys.close()
			return nil, err
		}
		if _, err := sys.api.Opacity(ctx, api.OpacityRequest{GraphRef: w.ids[i], L: w.L, Cache: "off"}); err != nil {
			sys.close()
			return nil, fmt.Errorf("first acquire: %w", err)
		}
	}
	return sys, nil
}

func (w *greedyWorkload) cycle() int  { return len(w.graphs) }
func (w *greedyWorkload) warmup() int { return 3 }
func (w *greedyWorkload) maxOps() int { return 0 }

func (w *greedyWorkload) do(ctx context.Context, sys *system, i int) (any, error) {
	k := i % len(w.graphs)
	return sys.api.Anonymize(ctx, api.AnonymizeRequest{
		GraphRef: w.ids[k], L: w.L, Theta: w.theta, Method: "rem", Seed: w.seeds[k], Cache: "off",
	})
}

func (w *greedyWorkload) check(i int, resp any) error {
	k := i % len(w.graphs)
	got, want := resp.(*api.AnonymizeResponse), w.want[k]
	if got.MaxOpacity != want.FinalLO || len(got.Removed) != len(want.Removed) {
		return fmt.Errorf("greedy graph %d: max_opacity %v with %d removals, want %v with %d",
			k, got.MaxOpacity, len(got.Removed), want.FinalLO, len(want.Removed))
	}
	for j, e := range want.Removed {
		if got.Removed[j] != [2]int{e.U, e.V} {
			return fmt.Errorf("greedy graph %d: removal %d is %v, want [%d %d]", k, j, got.Removed[j], e.U, e.V)
		}
	}
	return nil
}

func (w *greedyWorkload) verify(int) (int, []error) { return 0, nil }

// greedyReplayGraphs bounds the in-process replay of the traced run.
const greedyReplayGraphs = 7

func (w *greedyWorkload) replay(ctx context.Context, lr *layerRun, _ string, _ int) error {
	for k, g := range w.graphs {
		if k == greedyReplayGraphs {
			break
		}
		st, err := lr.graphKit(g, w.L, kitOptions{edges: g.M(), encode: true})
		if err != nil {
			return err
		}
		// One untraced run times the loop as the server runs it; a second
		// run with a Trace callback times the gaps between steps.
		var res anonymize.Result
		opts := anonymize.Options{L: w.L, Theta: w.theta, Seed: w.seeds[k], Distances: st}
		d := lr.timed("anonymize.run_ms", "anonymize.RunContext", func() {
			res, err = anonymize.RunContext(ctx, g, opts)
		})
		if err != nil {
			return fmt.Errorf("replay anonymize: %w", err)
		}
		if res.FinalLO != w.want[k].FinalLO || len(res.Removed) != len(w.want[k].Removed) {
			return fmt.Errorf("replay anonymize graph %d diverged from its oracle", k)
		}
		last := time.Now()
		opts.Trace = func(anonymize.Step) {
			now := time.Now()
			lr.tr.interval("anonymize.step", "replay", lr.root, last, now)
			lr.add("anonymize.step_ms", durMS(now.Sub(last)))
			last = now
		}
		if _, err := anonymize.RunContext(ctx, g, opts); err != nil {
			return fmt.Errorf("replay anonymize: %w", err)
		}
		w.runMS[k] = durMS(d)
		lr.add("anonymize.steps_per_op", float64(res.Steps))
		lr.add("anonymize.candidate_evals_per_op", float64(res.CandidateEvals))
	}
	return nil
}

func (w *greedyWorkload) compute(i int) (float64, bool) {
	ms, ok := w.runMS[i%len(w.graphs)]
	return ms, ok
}

// ----------------------------------------------------------------- audit

// auditOp is one opacity request of the audit cycle.
type auditOp struct {
	k, L int
	hint string
}

// auditWorkload is the warm read path: POST /v1/opacity by graph_ref
// with the result cache off, cycling over pool graphs, L, and the
// engine hints clients send.
type auditWorkload struct {
	graphs   []*graph.Graph
	ids      []string
	ops      []auditOp
	want     map[[2]int]*api.OpacityResponse
	reportMS map[[2]int]float64
}

func newAudit(tiny bool, seed int64) (*auditWorkload, error) {
	n, m, pool := 2000, 20000, 5
	if tiny {
		n, m, pool = 256, 1500, 3
	}
	w := &auditWorkload{want: map[[2]int]*api.OpacityResponse{}, reportMS: map[[2]int]float64{}}
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	for k := 0; k < pool; k++ {
		g, err := gen.RMAT(n, m, gen.WebRMAT(), rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		id, err := digestOf(g)
		if err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, g)
		w.ids = append(w.ids, id)
		for _, L := range []int{2, 3} {
			w.want[[2]int{k, L}] = opacityAnswer(L, opacity.NewReport(g, nil, L))
		}
		// L=3 reports cost ~1.3x L=2 ones. Weighting L=2 3:1 puts p50
		// inside the L=2 class and p90 inside the L=3 class, never on
		// the boundary between them; both hints appear at every L.
		for _, L := range []int{2, 2, 2, 3} {
			for _, hint := range []string{"", "bitbfs"} {
				w.ops = append(w.ops, auditOp{k, L, hint})
			}
		}
	}
	return w, nil
}

func (w *auditWorkload) setup(ctx context.Context, tr *tracer, _ string) (*system, error) {
	sys, err := startSystem(server.Config{}, 1, false, tr)
	if err != nil {
		return nil, err
	}
	for k, g := range w.graphs {
		if err := register(ctx, sys, g, w.ids[k]); err != nil {
			sys.close()
			return nil, err
		}
	}
	seen := map[auditOp]bool{}
	for i, op := range w.ops { // first acquire of every (graph, L, engine) store
		if seen[op] {
			continue
		}
		seen[op] = true
		resp, err := w.do(ctx, sys, i)
		if err == nil {
			err = w.check(i, resp)
		}
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("first acquire: %w", err)
		}
	}
	return sys, nil
}

func (w *auditWorkload) cycle() int  { return len(w.ops) }
func (w *auditWorkload) warmup() int { return len(w.graphs) }
func (w *auditWorkload) maxOps() int { return 0 }

func (w *auditWorkload) do(ctx context.Context, sys *system, i int) (any, error) {
	op := w.ops[i%len(w.ops)]
	return sys.api.Opacity(ctx, api.OpacityRequest{GraphRef: w.ids[op.k], L: op.L, Engine: op.hint, Cache: "off"})
}

func (w *auditWorkload) check(i int, resp any) error {
	op := w.ops[i%len(w.ops)]
	if !sameOpacity(resp.(*api.OpacityResponse), w.want[[2]int{op.k, op.L}]) {
		return fmt.Errorf("audit graph %d L=%d engine %q: answer differs from opacity.NewReport", op.k, op.L, op.hint)
	}
	return nil
}

func (w *auditWorkload) verify(int) (int, []error) { return 0, nil }

// auditReplayGraphs bounds the in-process replay of the traced run.
const auditReplayGraphs = 2

func (w *auditWorkload) replay(_ context.Context, lr *layerRun, _ string, _ int) error {
	for k, g := range w.graphs {
		if k == auditReplayGraphs {
			break
		}
		for _, L := range []int{2, 3} {
			// A removal delta on these graphs costs ~0.5 s at L=3, so
			// the candidate kernels are sampled at L=2 only.
			edges := 0
			if L == 2 {
				edges = 2
			}
			if _, err := lr.graphKit(g, L, kitOptions{edges: edges, encode: true}); err != nil {
				return err
			}
			s := lr.samples["opacity.report_ms"]
			w.reportMS[[2]int{k, L}] = s[len(s)-1]
		}
	}
	return nil
}

func (w *auditWorkload) compute(i int) (float64, bool) {
	op := w.ops[i%len(w.ops)]
	ms, ok := w.reportMS[[2]int{op.k, op.L}]
	return ms, ok
}

// ---------------------------------------------------------------- routed

// routedKeys are the paper's Table 3 samples with n=100.
var routedKeys = []string{"google100", "epinions100", "enron100", "gnutella100", "wikipedia100",
	"epinions-trust100", "epinions-distrust100", "gnutella-s100"}

// routedWorkload is the serving tier's overhead path: loprouter in
// front of two lopserve backends answering one batch of opacity items
// from the result cache.
type routedWorkload struct {
	graphs []*graph.Graph
	ids    []string
	items  []api.BatchItem
	want   []*api.OpacityResponse
	wantB  [][]byte
	hashMS float64
}

// The batch's answers carry routedRows type rows, within routedSlack:
// the JSON payload is most of a cache-hit batch's cost, and free draws
// ranged from 1216 to 1828 rows over ten seeds, moving p50_ms by ~20%.
const (
	routedRows  = 1500
	routedSlack = 0.025
)

func newRouted(seed int64) (*routedWorkload, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	ring, err := router.NewRing(routedPeers, routedVNodes)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 10000; attempt++ {
		w, rows, err := drawRouted(rng, ring)
		if err != nil {
			return nil, err
		}
		if math.Abs(float64(rows-routedRows)) <= routedSlack*routedRows {
			return w, nil
		}
	}
	return nil, fmt.Errorf("routed: no sample set with %d±%.1f%% answer rows", routedRows, 100*routedSlack)
}

// drawRouted draws one sample per key and returns the workload with
// the number of type rows its answers carry.
func drawRouted(rng *rand.Rand, ring *router.Ring) (*routedWorkload, int, error) {
	w := &routedWorkload{}
	rows := 0
	for k, key := range routedKeys {
		// Samples are drawn until graph k lands on backend k mod 2, so
		// every seed splits the batch 4/4 over the two backends.
		var g *graph.Graph
		var id string
		var err error
		for g == nil || ring.Owner(id) != routedPeers[k%2] {
			if g, err = dataset.GenerateByKey(key, rng.Int63()); err != nil {
				return nil, 0, err
			}
			if id, err = digestOf(g); err != nil {
				return nil, 0, err
			}
		}
		w.graphs = append(w.graphs, g)
		w.ids = append(w.ids, id)
		for _, L := range []int{2, 3} {
			req, err := json.Marshal(api.OpacityRequest{GraphRef: id, L: L})
			if err != nil {
				return nil, 0, err
			}
			want := opacityAnswer(L, opacity.NewReport(g, nil, L))
			b, err := json.Marshal(want)
			if err != nil {
				return nil, 0, err
			}
			rows += len(want.Types)
			w.items = append(w.items, api.BatchItem{Op: "opacity", Request: req})
			w.want = append(w.want, want)
			w.wantB = append(w.wantB, b)
		}
	}
	return w, rows, nil
}

func (w *routedWorkload) setup(ctx context.Context, tr *tracer, _ string) (*system, error) {
	sys, err := startSystem(server.Config{}, 2, true, tr)
	if err != nil {
		return nil, err
	}
	for k, g := range w.graphs {
		if err := register(ctx, sys, g, w.ids[k]); err != nil {
			sys.close()
			return nil, err
		}
	}
	resp, err := w.do(ctx, sys, 0) // the cache warm-up pass
	if err == nil {
		err = w.check(0, resp)
	}
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("cache warm-up: %w", err)
	}
	return sys, nil
}

func (w *routedWorkload) cycle() int  { return 1 }
func (w *routedWorkload) warmup() int { return 20 }
func (w *routedWorkload) maxOps() int { return 0 }

func (w *routedWorkload) do(ctx context.Context, sys *system, _ int) (any, error) {
	return sys.api.Batch(ctx, api.BatchRequest{Items: w.items})
}

func (w *routedWorkload) check(_ int, resp any) error {
	got := resp.(*api.BatchResponse)
	if len(got.Results) != len(w.items) || got.Failed != 0 {
		return fmt.Errorf("routed batch: %d results with %d failed, want %d", len(got.Results), got.Failed, len(w.items))
	}
	for j, r := range got.Results {
		if r.Status/100 != 2 {
			return fmt.Errorf("routed item %d: status %d", j, r.Status)
		}
		if bytes.Equal(r.Result, w.wantB[j]) {
			continue
		}
		var ans api.OpacityResponse
		if err := json.Unmarshal(r.Result, &ans); err != nil || !sameOpacity(&ans, w.want[j]) {
			return fmt.Errorf("routed item %d: answer differs from opacity.NewReport", j)
		}
	}
	return nil
}

func (w *routedWorkload) verify(int) (int, []error) { return 0, nil }

func (w *routedWorkload) replay(_ context.Context, lr *layerRun, _ string, _ int) error {
	for _, g := range w.graphs {
		for _, L := range []int{2, 3} {
			if _, err := lr.graphKit(g, L, kitOptions{edges: 10, encode: true}); err != nil {
				return err
			}
		}
	}
	w.hashMS = median(lr.samples["jobs.key_hash_us"]) / 1000
	return nil
}

// compute for a batch of cache hits is hashing each item's cache key.
func (w *routedWorkload) compute(int) (float64, bool) {
	return float64(len(w.items)) * w.hashMS, w.hashMS > 0
}
