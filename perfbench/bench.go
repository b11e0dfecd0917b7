package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/api"
)

// An end-to-end run sets the system up at least setupMinRuns times and
// until setupMinTime of setup has accumulated, at most setupMaxRuns
// times; setup_s is the median, and the last setup serves the window.
const (
	setupMinRuns = 3
	setupMaxRuns = 31
	setupMinTime = time.Second
)

// minBeyondP90 is the fewest samples a reported p90 must have above it.
const minBeyondP90 = 10

// harness drives one workload through warm-up and measured windows.
type harness struct {
	w      workload
	sys    *system
	tr     *tracer
	next   int // global index of the next op
	failed int
	errs   []string
}

// window is one measured stretch of whole pool passes.
type window struct {
	lat    []float64 // ms, successful ops only
	ops    int
	wall   time.Duration
	capped bool
}

func (w window) throughput() float64 { return float64(w.ops) / w.wall.Seconds() }

// fail counts a failed op, keeping the first few errors for the record.
func (h *harness) fail(i int, err error) {
	h.failed++
	if len(h.errs) < 5 {
		h.errs = append(h.errs, fmt.Sprintf("op %d: %v", i, err))
	}
}

// op runs the next op: only the request is timed, then the answer is
// checked against its oracle. With traced set the op carries a request
// ID and is recorded as a client span.
func (h *harness) op(ctx context.Context, traced bool) (float64, bool) {
	i := h.next
	h.next++
	id := ""
	if traced {
		id = "op" + strconv.Itoa(i)
	}
	start := time.Now()
	resp, err := h.w.do(withRequestID(ctx, id), h.sys, i)
	end := time.Now()
	if traced {
		h.tr.interval("client", id, 0, start, end)
	}
	if err == nil {
		err = h.w.check(i, resp)
	}
	if err != nil {
		h.fail(i, err)
		return 0, false
	}
	return durMS(end.Sub(start)), true
}

// run measures whole passes over the pool until dur has elapsed (or
// the workload's op cap is reached).
func (h *harness) run(ctx context.Context, dur time.Duration, traced bool) window {
	var win window
	start := time.Now()
	for !win.capped {
		for j := 0; j < h.w.cycle(); j++ {
			if max := h.w.maxOps(); max > 0 && h.next >= max {
				win.capped = true
				break
			}
			lat, ok := h.op(ctx, traced)
			win.ops++
			if ok {
				win.lat = append(win.lat, lat)
			}
		}
		if time.Since(start) >= dur {
			break
		}
	}
	win.wall = time.Since(start)
	return win
}

// liveHeap returns HeapAlloc after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle also frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// execute runs one workload and returns its result and run record.
func execute(ctx context.Context, o options) (result, record, error) {
	rec := newRecord(o)
	phase := time.Now()
	lap := func(name string) {
		rec.PhaseSeconds[name] = time.Since(phase).Seconds()
		phase = time.Now()
	}
	w, err := newWorkload(o)
	if err != nil {
		return result{}, rec, err
	}
	lap("inputs")
	runDir := filepath.Join(o.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	h := &harness{w: w}
	if o.trace {
		h.tr = newTracer()
	}
	minRuns, maxRuns := setupMinRuns, setupMaxRuns
	if o.trace {
		minRuns, maxRuns = 1, 1 // a traced run reports no setup_s
	}
	var heap0 uint64
	var spent time.Duration
	for k := 0; k < maxRuns && (k < minRuns || spent < setupMinTime); k++ {
		h.sys.close()
		h.sys = nil
		heap0 = liveHeap()
		start := time.Now()
		sys, err := w.setup(ctx, h.tr, filepath.Join(runDir, fmt.Sprintf("setup%d", k)))
		took := time.Since(start)
		spent += took
		rec.SetupSeconds = append(rec.SetupSeconds, took.Seconds())
		if err != nil {
			return result{}, rec, fmt.Errorf("setup: %w", err)
		}
		h.sys = sys
	}
	defer func() { h.sys.close() }()
	afterSetup, err := h.sys.api.Stats(ctx)
	if err != nil {
		return result{}, rec, fmt.Errorf("stats: %w", err)
	}

	lap("setup")
	for h.next < w.warmup() {
		h.op(ctx, false)
	}
	lap("warmup")
	rec.WarmupOps = h.next
	dur := time.Duration(o.seconds) * time.Second

	metrics := map[string]metric{}
	var win window
	if !o.trace {
		win = h.run(ctx, dur, false)
		heap1 := liveHeap()
		if len(win.lat) == 0 {
			return result{}, rec, fmt.Errorf("no op succeeded in the window")
		}
		p50, _ := percentile(win.lat, 0.5)
		p90, beyond := percentile(win.lat, 0.9)
		if beyond < minBeyondP90 {
			return result{}, rec, fmt.Errorf("p90 has %d samples beyond it (need %d): only %d ops in %v; lengthen --seconds",
				beyond, minBeyondP90, len(win.lat), dur)
		}
		metrics["throughput_ops_s"] = metric{win.throughput(), "ops/s"}
		metrics["p50_ms"] = metric{p50, "ms"}
		metrics["p90_ms"] = metric{p90, "ms"}
		metrics["setup_s"] = metric{median(rec.SetupSeconds), "s"}
		metrics["heap_live_mb"] = metric{(float64(heap1) - float64(heap0)) / (1 << 20), "MiB"}
		rec.Samples["p50_ms"] = len(win.lat)
		rec.Samples["p90_ms"] = len(win.lat)
		rec.Samples["setup_s"] = len(rec.SetupSeconds)
	} else {
		win, err = h.traced(ctx, dur, afterSetup, runDir, metrics, &rec)
		if err != nil {
			return result{}, rec, err
		}
	}
	lap("window")
	rec.Ops = win.ops
	rec.WindowSeconds = win.wall.Seconds()
	rec.Capped = win.capped

	bad, verrs := w.verify(h.next)
	lap("verify")
	rec.VerifyFailed = bad
	h.failed += bad
	for _, e := range verrs {
		if len(h.errs) < 5 {
			h.errs = append(h.errs, e.Error())
		}
	}
	attempted := h.next
	rec.Failed = h.failed
	rec.Succeeded = attempted - h.failed
	rec.ErrorRatio = float64(h.failed) / float64(attempted)
	rec.Errors = h.errs
	if !o.trace {
		metrics["success_ratio"] = metric{1 - rec.ErrorRatio, "ratio"}
	}
	return result{Correct: h.failed == 0, Attempted: attempted, Failed: h.failed, Metrics: metrics}, rec, nil
}

// traced runs an untraced half window (for the runtime counters and
// the overhead baseline), then a traced half window and the in-process
// replay, and fills the per-layer metrics.
func (h *harness) traced(ctx context.Context, dur time.Duration, afterSetup *api.StatsResponse,
	runDir string, metrics map[string]metric, rec *record) (window, error) {
	lr := newLayerRun(h.tr)
	ms0, cpu0 := runtimeCounters()
	plain := h.run(ctx, dur/2, false)
	ms1, cpu1 := runtimeCounters()
	ops := float64(plain.ops)
	lr.add("runtime.gc_per_op", float64(ms1.NumGC-ms0.NumGC)/ops)
	lr.add("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/ops)
	lr.add("runtime.cpu_ms_per_op", durMS(cpu1-cpu0)/ops)

	before, err := h.sys.api.Stats(ctx)
	if err != nil {
		return plain, fmt.Errorf("stats: %w", err)
	}
	h.tr.on.Store(true)
	win := h.run(ctx, dur/2, true)
	h.tr.on.Store(false)
	after, err := h.sys.api.Stats(ctx)
	if err != nil {
		return win, fmt.Errorf("stats: %w", err)
	}
	lr.add("trace.overhead_ratio", win.throughput()/plain.throughput())
	tops := float64(win.ops)
	lookups := (after.Cache.Hits - before.Cache.Hits) + (after.Cache.Misses - before.Cache.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(after.Cache.Hits-before.Cache.Hits) / float64(lookups)
	}
	lr.add("jobs.cache_hit_ratio", hitRatio)
	lr.add("registry.stores", float64(afterSetup.Registry.Stores))
	var storeBytes int64
	for _, b := range after.Registry.StoreBytes {
		storeBytes += b
	}
	lr.add("registry.store_mb", float64(storeBytes)/(1<<20))
	lr.add("registry.repair_fallbacks_per_op", float64(after.Registry.RepairFallbacks-before.Registry.RepairFallbacks)/tops)
	writes := func(s *api.StatsResponse) int64 {
		return s.Persistence.GraphWrites + s.Persistence.StoreWrites + s.Persistence.LineageWrites
	}
	lr.add("registry.writes_per_op", float64(writes(after)-writes(before))/tops)

	root := h.tr.begin("replay", "replay")
	lr.root = root
	if err := h.w.replay(ctx, lr, runDir, h.next); err != nil {
		return win, fmt.Errorf("replay: %w", err)
	}
	h.tr.finish(root)
	h.spanMetrics(lr)

	for _, d := range perLayer {
		s := lr.samples[d.name]
		metrics[d.name] = metric{median(s), d.unit}
		rec.Samples[d.name] = len(s)
	}
	rec.SpanFile, err = h.tr.write(filepath.Dir(runDir), rec.Workload, rec.Seed)
	return win, err
}

// spanMetrics derives the client, router and server metrics from the
// traced window's spans: each client op's children are the outermost
// server-side spans (the router's, or lopserve's), and the router's
// children are its backend calls.
func (h *harness) spanMetrics(lr *layerRun) {
	h.tr.link()
	kids := h.tr.children()
	for _, c := range h.tr.named("client") {
		outer := kids[c.ID]
		if len(outer) == 0 {
			continue
		}
		var outerSum, handler time.Duration
		for _, s := range outer {
			outerSum += s.dur()
			if s.Name != "router" {
				handler += s.dur()
				continue
			}
			var longest time.Duration
			groups := kids[s.ID]
			for _, b := range groups {
				handler += b.dur()
				longest = max(longest, b.dur())
			}
			lr.add("router.self_ms", durMS(s.dur()-longest))
			lr.add("router.groups_per_op", float64(len(groups)))
		}
		lr.add("client.overhead_ms", durMS(c.dur()-outerSum))
		lr.add("server.handler_ms", durMS(handler))
		i, err := strconv.Atoi(c.Op[len("op"):])
		if err != nil {
			continue
		}
		if comp, ok := h.w.compute(i); ok {
			lr.add("server.overhead_ms", durMS(handler)-comp)
		}
	}
}

// runtimeCounters reads the GC counters and the process CPU time.
func runtimeCounters() (runtime.MemStats, time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ms, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return ms, cpu
}
