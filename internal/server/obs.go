// Observability wiring: the middleware chain around the route table
// and GET /metrics, the Prometheus text exposition. The HTTP-path
// metrics (per-route counters, latency histograms, in-flight gauge)
// are maintained live by the obs middleware; the subsystem gauges
// (result cache, graph registry, job queue) are sourced from the
// existing Stats structs at scrape time, so /metrics and /v1/stats can
// never disagree about the counters they share.
package server

import (
	"net/http"

	"repro/internal/obs"
)

// unprotected reports whether a request bypasses authentication and
// rate limiting: liveness probes and metric scrapes must never answer
// 401 or 429, or load balancers would cycle healthy instances and
// monitoring would go blind exactly when the server is busiest.
func unprotected(r *http.Request) bool {
	switch r.URL.Path {
	case "/healthz", "/v1/healthz", "/metrics":
		return true
	}
	return false
}

// buildChain assembles the middleware stack around the route table,
// outermost first: request IDs (everything downstream sees the ID),
// request logging and metrics (rejections are logged and counted too),
// then auth and rate limiting. Stages the config disables are simply
// not linked in, so an unconfigured server serves exactly as before
// plus IDs and metrics.
func (s *Server) buildChain(mux *http.ServeMux) http.Handler {
	mw := []obs.Middleware{obs.RequestID()}
	if s.cfg.RequestLog != nil {
		mw = append(mw, obs.Logger(s.cfg.RequestLog))
	}
	mw = append(mw, s.metrics.Middleware(s.routeOf))
	if len(s.cfg.AuthTokens) > 0 {
		mw = append(mw, obs.Auth(obs.NewTokenSet(s.cfg.AuthTokens), unprotected))
	}
	if s.cfg.RateLimit > 0 {
		mw = append(mw, obs.RateLimit(obs.NewLimiter(s.cfg.limiterConfig()), unprotected))
	}
	return obs.Chain(mw...)(mux)
}

// routeOf resolves a request to its mux pattern ("/v1/jobs/{id}", not
// the raw path) so metric label cardinality stays bounded by the route
// table, not by client-supplied paths.
func (s *Server) routeOf(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return "unmatched"
	}
	return pattern
}

// statsGauges are the scrape-time metrics sourced from the Stats
// structs the subsystems already maintain. They are plain gauges —
// point-in-time snapshots, even for monotone counts — refreshed on
// every /metrics request.
type statsGauges struct {
	cacheHits, cacheMisses, cacheEntries              *obs.Series
	regGraphs, regHits, regMisses                     *obs.Series
	regStoreHits, regStoreMisses, regBuilds           *obs.Series
	regBuildMSTotal, regBuildMSMax                    *obs.Series
	regMutations, regRepairs                          *obs.Series
	regRepairFallbacks, regRepairMSTotal              *obs.Series
	regHydrations, regHydratedStores                  *obs.Series
	jobsQueueDepth, jobsRunning, jobsDone, jobsFailed *obs.Series
	jobsWorkers                                       *obs.Series

	// Per-backing store footprints, labeled by backing name; the label
	// set is bounded by the apsp backing enum, not by request input.
	storeBytes, storeFileBytes *obs.Vec
	// Paged-store page cache occupancy and traffic.
	pageBudget, pageResident, pagePages *obs.Series
	pageHits, pageMisses, pageEvictions *obs.Series
}

func newStatsGauges(reg *obs.Registry) *statsGauges {
	g := func(name, help string) *obs.Series {
		return reg.Gauge(name, help).With()
	}
	return &statsGauges{
		storeBytes:      reg.Gauge("lopserve_store_bytes", "Heap-resident bytes of cached distance stores, by backing.", "kind"),
		storeFileBytes:  reg.Gauge("lopserve_store_file_bytes", "File-backed bytes of cached distance stores, by backing.", "kind"),
		pageBudget:      g("lopserve_store_page_cache_budget_bytes", "Configured paged-store cache ceiling (-store-budget-bytes)."),
		pageResident:    g("lopserve_store_page_cache_resident_bytes", "Bytes currently resident in the paged-store cache."),
		pagePages:       g("lopserve_store_page_cache_pages", "Pages currently resident in the paged-store cache."),
		pageHits:        g("lopserve_store_page_cache_hits", "Page lookups served from the cache since boot."),
		pageMisses:      g("lopserve_store_page_cache_misses", "Page lookups that read the snapshot file since boot."),
		pageEvictions:   g("lopserve_store_page_cache_evictions", "Pages dropped to respect the budget since boot."),
		cacheHits:       g("lopserve_result_cache_hits", "Content-addressed result cache hits since boot."),
		cacheMisses:     g("lopserve_result_cache_misses", "Content-addressed result cache misses since boot."),
		cacheEntries:    g("lopserve_result_cache_entries", "Result cache entries currently retained."),
		regGraphs:       g("lopserve_registry_graphs", "Graphs currently in the content-addressed registry."),
		regHits:         g("lopserve_registry_hits", "Graph registry reference hits since boot."),
		regMisses:       g("lopserve_registry_misses", "Graph registry reference misses since boot."),
		regStoreHits:    g("lopserve_registry_store_hits", "Cached distance-store hits (APSP builds skipped) since boot."),
		regStoreMisses:  g("lopserve_registry_store_misses", "Distance-store misses (APSP builds required) since boot."),
		regBuilds:       g("lopserve_registry_builds", "Completed APSP distance-store builds since boot."),
		regBuildMSTotal: g("lopserve_registry_build_ms_total", "Total wall-clock milliseconds spent building distance stores."),
		regBuildMSMax:   g("lopserve_registry_build_ms_max", "Slowest single distance-store build in milliseconds."),
		regMutations:    g("lopserve_registry_mutations", "Graphs registered via PATCH (lineage-bearing children) since boot."),
		regRepairs:      g("lopserve_registry_repairs", "Distance-store hydrations served by incremental repair since boot."),
		regRepairFallbacks: g("lopserve_registry_repair_fallbacks",
			"Lineage-bearing store hydrations that fell back to a full build since boot."),
		regRepairMSTotal: g("lopserve_registry_repair_ms_total", "Total wall-clock milliseconds spent repairing distance stores."),
		regHydrations:    g("lopserve_registry_hydrations", "Graphs installed from peer snapshots since boot."),
		regHydratedStores: g("lopserve_registry_hydrated_stores",
			"Distance stores adopted from peer snapshots (APSP builds never paid) since boot."),
		jobsQueueDepth: g("lopserve_jobs_queue_depth", "Async jobs currently waiting to run."),
		jobsRunning:    g("lopserve_jobs_running", "Async jobs currently executing."),
		jobsDone:       g("lopserve_jobs_done", "Retained async jobs in state done."),
		jobsFailed:     g("lopserve_jobs_failed", "Retained async jobs in state failed."),
		jobsWorkers:    g("lopserve_jobs_workers", "Async worker goroutines configured."),
	}
}

// refresh pulls the current Stats snapshots into the gauges.
func (s *Server) refreshStatsGauges() {
	cs := s.cache.Stats()
	rs := s.reg.Stats()
	js := s.jobs.Stats()
	g := s.stats
	g.cacheHits.Set(float64(cs.Hits))
	g.cacheMisses.Set(float64(cs.Misses))
	g.cacheEntries.Set(float64(cs.Entries))
	g.regGraphs.Set(float64(rs.Graphs))
	g.regHits.Set(float64(rs.Hits))
	g.regMisses.Set(float64(rs.Misses))
	g.regStoreHits.Set(float64(rs.StoreHits))
	g.regStoreMisses.Set(float64(rs.StoreMisses))
	g.regBuilds.Set(float64(rs.Builds))
	g.regBuildMSTotal.Set(float64(rs.BuildMSTotal))
	g.regBuildMSMax.Set(float64(rs.BuildMSMax))
	g.regMutations.Set(float64(rs.Mutations))
	g.regRepairs.Set(float64(rs.Repairs))
	g.regRepairFallbacks.Set(float64(rs.RepairFallbacks))
	g.regRepairMSTotal.Set(float64(rs.RepairMSTotal))
	g.regHydrations.Set(float64(rs.Hydrations))
	g.regHydratedStores.Set(float64(rs.HydratedStores))
	g.jobsQueueDepth.Set(float64(js.QueueDepth))
	g.jobsRunning.Set(float64(js.Running))
	g.jobsDone.Set(float64(js.Done))
	g.jobsFailed.Set(float64(js.Failed))
	g.jobsWorkers.Set(float64(js.Workers))
	// Backings absent from this snapshot keep their previous series
	// value; zero them by always writing the full label set.
	for _, kind := range []string{"compact", "packed", "paged", "overlay"} {
		g.storeBytes.With(kind).Set(float64(rs.StoreBytes[kind]))
		g.storeFileBytes.With(kind).Set(float64(rs.StoreFileBytes[kind]))
	}
	g.pageBudget.Set(float64(rs.PageCache.BudgetBytes))
	g.pageResident.Set(float64(rs.PageCache.ResidentBytes))
	g.pagePages.Set(float64(rs.PageCache.Pages))
	g.pageHits.Set(float64(rs.PageCache.Hits))
	g.pageMisses.Set(float64(rs.PageCache.Misses))
	g.pageEvictions.Set(float64(rs.PageCache.Evictions))
}

// handleMetrics is GET /metrics: the Prometheus text exposition
// (version 0.0.4) of the HTTP-path metrics plus the subsystem gauges.
// Like the liveness probe it is exempt from auth and rate limiting, so
// a scraper needs no credentials and a traffic spike cannot blind
// monitoring.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.refreshStatsGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Registry().WritePrometheus(w)
}
