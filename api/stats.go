package api

// StatsResponse is the GET /v1/stats body: cache effectiveness,
// graph-registry effectiveness, snapshot persistence, and job-queue
// occupancy.
type StatsResponse struct {
	Cache       CacheStats       `json:"cache"`
	Registry    RegistryStats    `json:"registry"`
	Persistence PersistenceStats `json:"persistence"`
	Jobs        JobStats         `json:"jobs"`
	// Router is present only on responses from loprouter: ring
	// membership, per-peer health, and each backend's own stats. The
	// sections above are then aggregates across the tier.
	Router *RouterStats `json:"router,omitempty"`
}

// CacheStats reports the content-addressed result cache counters.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
}

// RegistryStats reports the graph-registry counters: graph lookup
// effectiveness, capacity pressure, and distance-store reuse, where
// every store hit is one full APSP build skipped.
type RegistryStats struct {
	Graphs         int   `json:"graphs"`
	Capacity       int   `json:"capacity"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	Stores         int   `json:"stores"`
	StoreHits      int64 `json:"store_hits"`
	StoreMisses    int64 `json:"store_misses"`
	StoreEvictions int64 `json:"store_evictions"`
	// Builds counts completed APSP builds; BuildMSTotal and BuildMSMax
	// aggregate their wall-clock cost in milliseconds, so operators can
	// read build pressure (and the worst cold-build latency) straight
	// off /v1/stats.
	Builds       int64 `json:"builds"`
	BuildMSTotal int64 `json:"build_ms_total"`
	BuildMSMax   int64 `json:"build_ms_max"`
	// Mutations counts graphs registered via PATCH. Repairs counts
	// store hydrations served by repairing the parent's store through
	// the lineage diff (zero APSP builds); RepairFallbacks counts
	// lineage-bearing hydrations that built from scratch anyway;
	// RepairMSTotal aggregates repair wall-clock in milliseconds.
	Mutations       int64 `json:"mutations"`
	Repairs         int64 `json:"repairs"`
	RepairFallbacks int64 `json:"repair_fallbacks"`
	RepairMSTotal   int64 `json:"repair_ms_total"`
	// Hydrations counts graphs installed from a peer snapshot via
	// PUT /v1/graphs/{id}/snapshot; HydratedStores counts the distance
	// stores adopted alongside them — each one an APSP build this
	// replica never paid.
	Hydrations     int64 `json:"hydrations"`
	HydratedStores int64 `json:"hydrated_stores"`
	// StoreBytes and StoreFileBytes report where the cached distance
	// triangles live, keyed by backing name ("compact", "packed",
	// "paged", "overlay"): heap-resident bytes and file-backed bytes
	// respectively. A heap deployment shows bytes only under
	// store_bytes, and a paged one shows per-store file bytes plus a
	// heap residency bounded by -store-budget-bytes.
	StoreBytes     map[string]int64 `json:"store_bytes,omitempty"`
	StoreFileBytes map[string]int64 `json:"store_file_bytes,omitempty"`
	// PageCache reports the shared paged-store page cache
	// (-paged-stores); all fields are zero when paging is disabled.
	PageCache PageCacheStats `json:"page_cache"`
}

// PageCacheStats reports the paged-store LRU cache: its configured
// ceiling, current occupancy, and fault traffic.
type PageCacheStats struct {
	BudgetBytes   int64 `json:"budget_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	Pages         int   `json:"pages"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
}

// PersistenceStats reports the registry snapshot layer (-data-dir):
// what the last boot recovered and the write/delete traffic since.
// All counters are zero when persistence is disabled.
type PersistenceStats struct {
	Enabled        bool   `json:"enabled"`
	Dir            string `json:"dir,omitempty"`
	GraphsLoaded   int    `json:"graphs_loaded"`
	StoresLoaded   int    `json:"stores_loaded"`
	LineagesLoaded int    `json:"lineages_loaded"`
	Quarantined    int    `json:"quarantined"`
	GraphWrites    int64  `json:"graph_writes"`
	StoreWrites    int64  `json:"store_writes"`
	LineageWrites  int64  `json:"lineage_writes"`
	WriteErrors    int64  `json:"write_errors"`
	Deletes        int64  `json:"deletes"`
}

// JobStats reports worker-pool configuration and retained jobs by
// state. QueueDepth is the number of jobs currently waiting (the
// "queued" count; it is not repeated per state).
type JobStats struct {
	Workers       int `json:"workers"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Running       int `json:"running"`
	Done          int `json:"done"`
	Failed        int `json:"failed"`
	Cancelled     int `json:"cancelled"`
	// Detached counts cancelled jobs whose computation goroutine has
	// not exited yet; with cancellation-aware operations it drains to
	// zero within one poll interval.
	Detached int `json:"detached"`
}
