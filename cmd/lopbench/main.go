// Command lopbench is the perf-trajectory runner: it benchmarks the
// distance-engine hot paths in-process (via testing.Benchmark — no
// go-test subprocess, so it runs anywhere the binary does) and emits a
// machine-readable JSON report. Committed reports (BENCH_<n>.json at
// the repository root) form the project's performance trajectory, and
// CI re-runs the ci-scale suite against the last committed report,
// failing on large regressions.
//
// Usage:
//
//	lopbench -scale ci   -out /tmp/bench.json -baseline BENCH_1.json
//	lopbench -scale full -out BENCH_2.json        # paper-scale, minutes
//
// Suites (each row records ns/op, B/op, allocs/op, and the graph):
//
//	build_csr_auto      apsp.Build: the one bit-parallel sweep every build runs,
//	                    with the auto-parallel worker rule
//	csr_frozen          Graph -> CSR snapshot cost
//	bfs_inner           one bounded BFS + touched-only reset (0 allocs)
//	anonymize_greedy    capped greedy removal run (ci scale only)
//	tracker_evaluate    one Tracker.EvaluateWith on a removal candidate's
//	                    change list (epinions100, L=2; ci scale only)
//	greedy_step         one committed step of a full store-seeded Rem run
//	                    at θ=0, averaged over its steps (epinions100, L=2;
//	                    ci scale only)
//	warm_restart_mapped registry reboot with -paged-stores hydration (the
//	                    name predates the paged store; kept so the row
//	                    stays comparable with earlier baselines)
//	stream_build_file   streaming APSP build straight into a snapshot file
//	mutate_clone        seed-store mutation via full deep clone (the old path)
//	mutate_overlay      the same mutations via copy-on-write overlay
//	mutate_rebuild      distances after a small edge diff via full APSP rebuild
//	mutate_repair       the same diff via incremental store repair (must stay
//	                    byte-identical to the rebuild and >=10x faster at ci)
//	paged_under_budget  full EachPair sweep of a paged store under a
//	                    page budget far smaller than the triangle
//
// The tool exits non-zero when an invariant breaks (bfs_inner
// allocating, warm restart missing the persisted store, an overlay
// diverging from the clone it replaces, a paged sweep exceeding its
// budget) or when a baseline comparison exceeds -max-ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/opacity"
	"repro/internal/registry"
)

// Result is one benchmark row of the report.
type Result struct {
	Name  string `json:"name"`
	Scale string `json:"scale"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	L     int    `json:"l"`
	NsOp  int64  `json:"ns_per_op"`
	BOp   int64  `json:"b_per_op"`
	AOp   int64  `json:"allocs_per_op"`
}

// Report is the full JSON document.
type Report struct {
	Version int      `json:"version"`
	Go      string   `json:"go"`
	CPUs    int      `json:"cpus"`
	Results []Result `json:"results"`
}

// scaleSize maps a scale name to the RMAT grid point it benchmarks.
func scaleSize(scale string) (n, m int) {
	if scale == "full" {
		return 100_000, 1_000_000
	}
	return 5_000, 50_000
}

const benchL = 3

func main() {
	var (
		out      = flag.String("out", "", "write the JSON report here (default stdout)")
		scale    = flag.String("scale", "ci", "benchmark scale: ci, full, or both")
		baseline = flag.String("baseline", "", "compare against this committed report; regressions beyond -max-ratio fail")
		maxRatio = flag.Float64("max-ratio", 2.0, "maximum allowed ns/op ratio vs the baseline")
	)
	flag.Parse()

	var scales []string
	switch *scale {
	case "ci", "full":
		scales = []string{*scale}
	case "both":
		scales = []string{"ci", "full"}
	default:
		fatalf("unknown -scale %q (want ci, full, or both)", *scale)
	}

	report := Report{Version: 1, Go: runtime.Version(), CPUs: runtime.NumCPU()}
	for _, sc := range scales {
		rows, err := runScale(sc)
		if err != nil {
			fatalf("%v", err)
		}
		report.Results = append(report.Results, rows...)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}

	if *baseline != "" {
		if err := compare(report, *baseline, *maxRatio); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "lopbench: within %.1fx of %s\n", *maxRatio, *baseline)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lopbench: "+format+"\n", args...)
	os.Exit(1)
}

// runScale benchmarks every suite at one scale and returns the rows.
func runScale(scale string) ([]Result, error) {
	n, m := scaleSize(scale)
	fmt.Fprintf(os.Stderr, "lopbench: generating RMAT n=%d m=%d (scale %s)\n", n, m, scale)
	g, err := gen.RMAT(n, m, gen.WebRMAT(), rand.New(rand.NewSource(42)))
	if err != nil {
		return nil, err
	}
	row := func(name string, res testing.BenchmarkResult) Result {
		r := Result{
			Name: name, Scale: scale,
			N: g.N(), M: g.M(), L: benchL,
			NsOp: res.NsPerOp(), BOp: res.AllocedBytesPerOp(), AOp: res.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "lopbench: %-20s %12d ns/op %10d B/op %6d allocs/op\n", name, r.NsOp, r.BOp, r.AOp)
		return r
	}
	var rows []Result

	rows = append(rows, row("build_csr_auto", bench(func() {
		apsp.Build(g, benchL, apsp.BuildOptions{})
	})))
	rows = append(rows, row("csr_frozen", bench(func() {
		g.Frozen()
	})))

	inner, err := benchBFSInner(g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row("bfs_inner", inner))

	if scale == "ci" {
		ag, err := gen.RMAT(150, 450, gen.WebRMAT(), rand.New(rand.NewSource(7)))
		if err != nil {
			return nil, err
		}
		res := bench(func() {
			if _, err := anonymize.Run(ag, anonymize.Options{L: benchL, MaxSteps: 2, Seed: 1}); err != nil {
				panic(err)
			}
		})
		r := row("anonymize_greedy", res)
		r.N, r.M = ag.N(), ag.M() // row() records the big graph's dims; fix them
		rows = append(rows, r)

		greedyRows, err := benchGreedyLayers()
		if err != nil {
			return nil, err
		}
		for _, gr := range greedyRows {
			r := row(gr.name, gr.res)
			r.N, r.M, r.L = gr.g.N(), gr.g.M(), greedyL
			rows = append(rows, r)
		}
	}

	warm, err := benchWarmRestart(g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row("warm_restart_mapped", warm))

	stream, err := benchStreamBuild(g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row("stream_build_file", stream))

	cloneRes, overlayRes, err := benchOverlayVsClone(g)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row("mutate_clone", cloneRes))
	rows = append(rows, row("mutate_overlay", overlayRes))

	rebuildRes, repairRes, err := benchMutateRepair(g, scale)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row("mutate_rebuild", rebuildRes))
	rows = append(rows, row("mutate_repair", repairRes))

	paged, err := benchPagedUnderBudget(g, scale)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row("paged_under_budget", paged))
	return rows, nil
}

// greedyL is the distance threshold of the greedy-loop layer suites,
// the perfbench greedy workload's.
const greedyL = 2

// layerResult is a named benchmark on g.
type layerResult struct {
	name string
	res  testing.BenchmarkResult
	g    *graph.Graph
}

// perUnit rescales a benchmark whose every op did units of work to
// report per unit.
func perUnit(res testing.BenchmarkResult, units int) testing.BenchmarkResult {
	res.N *= units
	return res
}

// benchGreedyLayers times the greedy loop's layers on the perfbench
// greedy workload's shape (an epinions100 sample, L=2, θ=0):
// tracker_evaluate is one Tracker.EvaluateWith call on a removal
// candidate's change list, and greedy_step is one committed step of a
// full Rem run seeded from a prebuilt store, averaged over the run.
func benchGreedyLayers() ([]layerResult, error) {
	g, err := dataset.GenerateByKey("epinions100", 1)
	if err != nil {
		return nil, err
	}
	st := apsp.Build(g, greedyL, apsp.BuildOptions{})
	types := opacity.NewDegreeTypes(g.Degrees())
	tr := opacity.NewTracker(types, st)
	scratch := apsp.NewScratch(g.N())
	var lists [][]opacity.PairChange
	for _, e := range g.Edges() {
		var changes []opacity.PairChange
		apsp.RemovalDelta(g, st, e.U, e.V, scratch, func(x, y, oldD, newD int) {
			changes = append(changes, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
		})
		lists = append(lists, changes)
	}
	deltas := make([]int, types.NumTypes())
	evaluate := bench(func() {
		for _, changes := range lists {
			tr.EvaluateWith(changes, deltas)
		}
	})

	opts := anonymize.Options{L: greedyL, Seed: 1, Distances: st}
	res, err := anonymize.Run(g, opts)
	if err != nil {
		return nil, err
	}
	if res.Steps == 0 {
		return nil, fmt.Errorf("greedy_step: the run committed no step")
	}
	step := bench(func() {
		if _, err := anonymize.Run(g, opts); err != nil {
			panic(err)
		}
	})
	return []layerResult{
		{name: "tracker_evaluate", res: perUnit(evaluate, len(lists)), g: g},
		{name: "greedy_step", res: perUnit(step, res.Steps), g: g},
	}, nil
}

// bench runs fn under testing.Benchmark with allocation reporting.
func bench(fn func()) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

// benchBFSInner measures the engine inner loop — one bounded BFS plus
// its touched-only reset — and enforces the zero-allocation invariant.
func benchBFSInner(g *graph.Graph) (testing.BenchmarkResult, error) {
	c := g.Frozen()
	n := c.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	src := 0
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			visited := c.BoundedBFSInto(src, benchL, dist, queue)
			for _, v := range visited {
				dist[v] = -1
			}
			queue = visited[:0]
			src++
			if src == n {
				src = 0
			}
		}
	})
	if res.AllocsPerOp() != 0 {
		return res, fmt.Errorf("bfs_inner allocates %d objects/op, want 0", res.AllocsPerOp())
	}
	return res, nil
}

// benchWarmRestart measures a full registry reboot with paged-store
// hydration: build + persist once, then time New(PagedStores) plus
// the first Distances call, asserting it never rebuilds.
func benchWarmRestart(g *graph.Graph) (testing.BenchmarkResult, error) {
	dir, err := os.MkdirTemp("", "lopbench-*")
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer os.RemoveAll(dir)

	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	seedReg := registry.New(registry.Config{Dir: dir})
	sg, _, err := seedReg.Put(g.N(), edges)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	sg.Store(benchL)
	id := sg.ID()

	var misses int64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := registry.New(registry.Config{Dir: dir, PagedStores: true})
			wg, ok := r.Get(id)
			if !ok {
				panic("warm registry lost the graph")
			}
			wg.Store(benchL)
			misses = r.Stats().StoreMisses
		}
	})
	if misses != 0 {
		return res, fmt.Errorf("warm_restart_mapped rebuilt: store_misses=%d, want 0", misses)
	}
	return res, nil
}

// benchStreamBuild measures the streaming APSP build writing straight
// into a snapshot file — the out-of-core build path, whose working set
// is O(n) no matter how large the triangle on disk grows.
func benchStreamBuild(g *graph.Graph) (testing.BenchmarkResult, error) {
	dir, err := os.MkdirTemp("", "lopbench-stream-*")
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.store")
	return bench(func() {
		if err := apsp.BuildToFile(path, g, benchL, apsp.BuildOptions{}); err != nil {
			panic(err)
		}
	}), nil
}

// benchOverlayVsClone pits the two seed-run mutation strategies against
// each other on one store and one fixed dirty-cell set: a full deep
// clone (cost proportional to the n(n-1)/2 triangle) versus a
// copy-on-write overlay (cost proportional to the cells written).
// Before timing anything it asserts the two strategies agree cell for
// cell, and afterwards that the overlay kept its asymptotic edge in
// allocated bytes.
func benchOverlayVsClone(g *graph.Graph) (clone, overlay testing.BenchmarkResult, err error) {
	st := apsp.Build(g, benchL, apsp.BuildOptions{})
	n := st.N()
	type cell struct{ i, j, d int }
	rng := rand.New(rand.NewSource(99))
	cells := make([]cell, 64)
	for k := range cells {
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-1-i)
		cells[k] = cell{i, j, 1 + rng.Intn(st.Far())}
	}

	m := st.Clone().(apsp.MutableStore)
	o := apsp.NewOverlay(st)
	for _, c := range cells {
		m.Set(c.i, c.j, c.d)
		o.Set(c.i, c.j, c.d)
	}
	if !apsp.Equal(m, o) {
		return clone, overlay, fmt.Errorf("mutate_overlay diverged from mutate_clone on the same writes")
	}

	clone = bench(func() {
		mc := st.Clone().(apsp.MutableStore)
		for _, c := range cells {
			mc.Set(c.i, c.j, c.d)
		}
	})
	overlay = bench(func() {
		ov := apsp.NewOverlay(st)
		for _, c := range cells {
			ov.Set(c.i, c.j, c.d)
		}
	})
	if clone.AllocedBytesPerOp() > 0 && overlay.AllocedBytesPerOp()*4 > clone.AllocedBytesPerOp() {
		return clone, overlay, fmt.Errorf("mutate_overlay allocates %d B/op vs the clone's %d — the overlay lost its asymptotic edge",
			overlay.AllocedBytesPerOp(), clone.AllocedBytesPerOp())
	}
	return clone, overlay, nil
}

// benchMutateRepair pits the two ways of answering distance queries
// after a small edge diff against each other: a full APSP rebuild of
// the child graph versus an incremental repair of the parent's store
// through the diff (the path PATCH /v1/graphs hydration takes). Before
// timing anything it asserts the repaired store serializes
// byte-identically to the from-scratch build, and afterwards (at ci
// scale, where timer noise is small relative to the gap) that repair
// kept at least a 10x latency edge over rebuild.
func benchMutateRepair(g *graph.Graph, scale string) (rebuild, repair testing.BenchmarkResult, err error) {
	st := apsp.Build(g, benchL, apsp.BuildOptions{})

	// A churn-sized diff: three fresh edges plus one removal. The
	// removed edge is the one with the lowest-degree endpoints —
	// detaching a peripheral vertex, the shape of typical churn. A
	// removal's repair cost is the size of the edge's crossing set (the
	// vertices whose shortest paths ran through it), so deleting from
	// the RMAT core would re-row a large fraction of the graph and
	// measure the repair worst case rather than the steady state.
	n := g.N()
	var adds [][2]int
	for u := 0; len(adds) < 3 && u < n; u++ {
		v := n - 1 - u
		if u != v && !g.HasEdge(u, v) {
			adds = append(adds, [2]int{u, v})
		}
	}
	deg := g.Degrees()
	rm := g.Edges()[0]
	best := deg[rm.U] + deg[rm.V]
	for _, e := range g.Edges() {
		if s := deg[e.U] + deg[e.V]; s < best {
			rm, best = e, s
		}
	}
	d, err := graph.NewDiff(n, adds, [][2]int{{rm.U, rm.V}})
	if err != nil {
		return rebuild, repair, fmt.Errorf("mutate_repair: %w", err)
	}
	child := g.Clone()
	if err := d.Apply(child); err != nil {
		return rebuild, repair, fmt.Errorf("mutate_repair: %w", err)
	}

	repaired, ok := apsp.RepairStore(st, child, d, apsp.RepairOptions{})
	if !ok {
		return rebuild, repair, fmt.Errorf("mutate_repair: repair bailed on a %d-edit diff at n=%d", d.Size(), n)
	}
	rebuilt := apsp.Build(child, benchL, apsp.BuildOptions{})
	wantBytes, err := apsp.MarshalStore(rebuilt)
	if err != nil {
		return rebuild, repair, err
	}
	gotBytes, err := apsp.MarshalStore(repaired)
	if err != nil {
		return rebuild, repair, err
	}
	if string(wantBytes) != string(gotBytes) {
		return rebuild, repair, fmt.Errorf("mutate_repair: repaired store is not byte-identical to the rebuild")
	}

	rebuild = bench(func() {
		apsp.Build(child, benchL, apsp.BuildOptions{})
	})
	repair = bench(func() {
		if _, ok := apsp.RepairStore(st, child, d, apsp.RepairOptions{}); !ok {
			panic("repair bailed mid-benchmark")
		}
	})
	if scale == "ci" && repair.NsPerOp()*10 > rebuild.NsPerOp() {
		return rebuild, repair, fmt.Errorf("mutate_repair: %d ns/op is not 10x under mutate_rebuild's %d — repair lost its edge",
			repair.NsPerOp(), rebuild.NsPerOp())
	}
	return rebuild, repair, nil
}

// pagedBenchBudget caps the paged_under_budget page cache at 1 MiB —
// 16 pages, far below the triangle at either scale (~12 MiB at ci,
// ~4.7 GiB at full), so the sweep must fault and evict throughout.
const pagedBenchBudget = 1 << 20

// benchPagedUnderBudget sweeps the full triangle through a paged store
// whose page cache is much smaller than the snapshot file, then asserts
// residency never exceeded the budget, that eviction actually happened,
// and (at ci scale, where an in-heap oracle is cheap) that the paged
// view is byte-identical to a direct build.
func benchPagedUnderBudget(g *graph.Graph, scale string) (testing.BenchmarkResult, error) {
	var zero testing.BenchmarkResult
	dir, err := os.MkdirTemp("", "lopbench-paged-*")
	if err != nil {
		return zero, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.store")
	if err := apsp.BuildToFile(path, g, benchL, apsp.BuildOptions{}); err != nil {
		return zero, err
	}
	cache := apsp.NewPageCache(pagedBenchBudget)
	ps, err := apsp.OpenPagedStore(path, cache)
	if err != nil {
		return zero, err
	}
	defer ps.Close()
	if scale == "ci" {
		if !apsp.Equal(apsp.Build(g, benchL, apsp.BuildOptions{}), ps) {
			return zero, fmt.Errorf("paged_under_budget: paged view diverges from the in-heap build")
		}
	}
	var sink int64
	res := bench(func() {
		ps.EachPair(func(_, _, d int) { sink += int64(d) })
	})
	_ = sink
	st := cache.Stats()
	if st.ResidentBytes > st.BudgetBytes {
		return zero, fmt.Errorf("paged_under_budget: resident %d bytes exceeds the %d budget", st.ResidentBytes, st.BudgetBytes)
	}
	if st.Evictions == 0 {
		return zero, fmt.Errorf("paged_under_budget: no evictions — the triangle fit the budget and the suite exercised nothing")
	}
	return res, nil
}

// compare fails when any suite present in both reports regressed in
// ns/op beyond maxRatio. Suites missing on either side are skipped —
// the trajectory may grow or retire suites between points.
func compare(cur Report, baselinePath string, maxRatio float64) error {
	data, err := os.ReadFile(filepath.Clean(baselinePath))
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	baseRows := make(map[string]Result)
	for _, r := range base.Results {
		baseRows[r.Name+"/"+r.Scale] = r
	}
	var failures []string
	for _, r := range cur.Results {
		b, ok := baseRows[r.Name+"/"+r.Scale]
		if !ok || b.NsOp <= 0 {
			continue
		}
		ratio := float64(r.NsOp) / float64(b.NsOp)
		if ratio > maxRatio {
			failures = append(failures, fmt.Sprintf("%s/%s: %d ns/op vs baseline %d (%.2fx > %.1fx)",
				r.Name, r.Scale, r.NsOp, b.NsOp, ratio, maxRatio))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "lopbench: REGRESSION "+f)
		}
		return fmt.Errorf("%d suite(s) regressed beyond %.1fx", len(failures), maxRatio)
	}
	return nil
}
