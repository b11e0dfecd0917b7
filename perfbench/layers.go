package main

import (
	"fmt"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/opacity"
	"repro/internal/registry"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// perLayer are the metrics of a traced run. Timings are medians over
// their samples; a metric a workload never exercises reads 0 with 0
// samples in the run record.
var perLayer = []metricDef{
	{"client.overhead_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.groups_per_op", "count"},
	{"server.handler_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.key_hash_us", "us"},
	{"registry.acquire_hit_us", "us"},
	{"registry.acquire_build_ms", "ms"},
	{"registry.stores", "count"},
	{"registry.store_mb", "MiB"},
	{"registry.mutate_ms", "ms"},
	{"registry.child_acquire_ms", "ms"},
	{"registry.repair_fallbacks_per_op", "count"},
	{"registry.writes_per_op", "count"},
	{"apsp.build_ms", "ms"},
	{"apsp.repair_ms", "ms"},
	{"apsp.encode_ms", "ms"},
	{"apsp.removal_delta_us", "us"},
	{"apsp.sweep_ms", "ms"},
	{"apsp.sweep_overlay_ms", "ms"},
	{"opacity.report_ms", "ms"},
	{"opacity.report_child_ms", "ms"},
	{"opacity.evaluate_with_us", "us"},
	{"anonymize.run_ms", "ms"},
	{"anonymize.step_ms", "ms"},
	{"anonymize.steps_per_op", "count"},
	{"anonymize.candidate_evals_per_op", "count"},
	{"graph.bfs_skip_us", "us"},
	{"graph.freeze_ms", "ms"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// unitOf returns the unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// layerRun collects the per-layer samples of a traced run. Every
// in-process call it times is also recorded as a span under the replay
// root span.
type layerRun struct {
	tr      *tracer
	root    int
	samples map[string][]float64
}

func newLayerRun(tr *tracer) *layerRun {
	return &layerRun{tr: tr, samples: map[string][]float64{}}
}

// add appends one sample (already in the metric's unit).
func (lr *layerRun) add(metric string, v float64) {
	unitOf(metric)
	lr.samples[metric] = append(lr.samples[metric], v)
}

// inUnit converts a duration to the metric's unit.
func inUnit(metric string, d time.Duration) float64 {
	switch unitOf(metric) {
	case "us":
		return float64(d) / float64(time.Microsecond)
	case "ms":
		return durMS(d)
	}
	panic("perfbench: metric " + metric + " is not a timing")
}

// timed runs fn as the call `call`, records it as a span and as one
// sample of metric, and returns its duration.
func (lr *layerRun) timed(metric, call string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	lr.tr.interval(call, "replay", lr.root, start, end)
	d := end.Sub(start)
	lr.add(metric, inUnit(metric, d))
	return d
}

// sink and frozen keep results of timed calls observable so they are
// not optimized away.
var (
	sink   int
	frozen *graph.CSR
)

// kitOptions selects the generic layer calls made on one graph.
type kitOptions struct {
	// edges caps the candidate edges whose removal delta, evaluation
	// and skip-BFS are timed (0 skips them).
	edges int
	// encode times apsp.MarshalStore of the graph's store.
	encode bool
}

// graphKit times the layer calls every workload shares on one of its
// graphs at L: CSR freeze, APSP build, the registry's cold and warm
// acquire, the opacity report and a full sweep of the store, the
// result-cache key hash, and, per candidate edge, the removal delta,
// the tracker evaluation and the skip-edge BFS. It returns the built
// store.
func (lr *layerRun) graphKit(g *graph.Graph, L int, o kitOptions) (apsp.Store, error) {
	lr.timed("graph.freeze_ms", "graph.Graph.Frozen", func() { frozen = g.Frozen() })
	var st apsp.MutableStore
	lr.timed("apsp.build_ms", "apsp.Build", func() { st = apsp.Build(g, L, apsp.BuildOptions{}) })

	edges := apiEdges(g)
	reg := registry.New(registry.Config{})
	ent, _, err := reg.Put(g.N(), edges)
	if err != nil {
		return nil, fmt.Errorf("registry put: %w", err)
	}
	lr.timed("registry.acquire_build_ms", "registry.Graph.Distances(build)", func() {
		ent.Distances(L, apsp.EngineAuto, apsp.KindCompact)
	})
	for i := 0; i < 5; i++ {
		lr.timed("registry.acquire_hit_us", "registry.Graph.Distances(hit)", func() {
			ent.Distances(L, apsp.EngineAuto, apsp.KindCompact)
		})
	}
	for i := 0; i < 3; i++ {
		lr.timed("jobs.key_hash_us", "jobs.HashJSON", func() {
			k, _ := jobs.HashJSON(opacityKey{"opacity", g.N(), edges, L, "auto", "compact"})
			sink += int(k[0])
		})
	}
	degrees := g.Degrees()
	lr.timed("opacity.report_ms", "opacity.NewReportFromStore", func() {
		sink += opacity.NewReportFromStore(degrees, st).N
	})
	lr.timed("apsp.sweep_ms", "apsp.Store.EachPair", func() { sink += sweep(st) })
	if o.encode {
		lr.timed("apsp.encode_ms", "apsp.MarshalStore", func() {
			b, _ := apsp.MarshalStore(st)
			sink += len(b)
		})
	}
	if o.edges > 0 {
		lr.candidates(g, st, degrees, o.edges)
	}
	return st, nil
}

// opacityKey mirrors the result-cache key the server hashes for an
// opacity request.
type opacityKey struct {
	Op            string   `json:"op"`
	N             int      `json:"n"`
	Edges         [][2]int `json:"edges"`
	L             int      `json:"l"`
	Engine, Store string
}

// candidates times the greedy loop's per-candidate kernels on up to
// limit edges of g spread evenly over its edge list.
func (lr *layerRun) candidates(g *graph.Graph, st apsp.Store, degrees []int, limit int) {
	n, L := g.N(), st.L()
	types := opacity.NewDegreeTypes(degrees)
	tk := opacity.NewTracker(types, st)
	scratch := apsp.NewScratch(n)
	deltas := make([]int, types.NumTypes())
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, n)
	var changes []opacity.PairChange
	es := g.Edges()
	step := 1
	if len(es) > limit {
		step = len(es) / limit
	}
	for i := 0; i < len(es) && i/step < limit; i += step {
		u, v := es[i].U, es[i].V
		changes = changes[:0]
		lr.timed("apsp.removal_delta_us", "apsp.RemovalDelta", func() {
			apsp.RemovalDelta(g, st, u, v, scratch, func(x, y, oldD, newD int) {
				changes = append(changes, opacity.PairChange{X: x, Y: y, OldD: oldD, NewD: newD})
			})
		})
		lr.timed("opacity.evaluate_with_us", "opacity.Tracker.EvaluateWith", func() {
			sink += tk.EvaluateWith(changes, deltas).Population
		})
		for _, src := range [2]int{u, v} {
			lr.timed("graph.bfs_skip_us", "graph.Graph.BoundedBFSIntoSkip", func() {
				sink += g.BoundedBFSIntoSkip(src, L, dist, queue, u, v)
			})
			for j := range dist {
				dist[j] = -1
			}
		}
	}
}

// sweep visits every pair of st, as a full report sweep does.
func sweep(st apsp.Store) int {
	s := 0
	st.EachPair(func(_, _, d int) { s += d })
	return s
}

// apiEdges returns g's edges in the wire form.
func apiEdges(g *graph.Graph) [][2]int {
	es := g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}
