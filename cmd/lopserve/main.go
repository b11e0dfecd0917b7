// Command lopserve exposes the L-opacity toolkit as an HTTP service:
// anonymization, privacy auditing, k-isomorphism, opacity reports,
// structural property reports, async job submission, and a
// content-addressed result cache, all with JSON bodies.
//
// Usage:
//
//	lopserve -addr :8080 -max-body 8388608 -max-budget 30s \
//	         -workers 4 -queue 64 -cache-entries 256 -job-ttl 15m \
//	         -graphs 64 -stores-per-graph 4 -preload gnutella500=1 \
//	         -data-dir /var/lib/lopserve \
//	         -auth-token s3cret -rate-limit 50 -rate-burst 100
//
// With -auth-token set (repeatable for several clients), every request
// must carry "Authorization: Bearer <token>" or it answers 401;
// -rate-limit adds a per-client token bucket (keyed by token, or by
// remote host without auth) answering 429 with Retry-After beyond the
// budget, and -rate-quota caps a client's lifetime requests. The
// liveness probes and GET /metrics are exempt from both, so load
// balancers and Prometheus scrapers need no credentials. Every request
// is logged as one structured JSON line (-request-log stderr|stdout|
// off) carrying the X-Request-ID also echoed to the client and stamped
// on async job events.
//
// With -data-dir set, registered graphs and their built distance
// stores are snapshotted write-through into the directory and
// recovered at startup, so a restarted server answers its first
// graph_ref queries with zero APSP builds (see the "persistence"
// section of GET /v1/stats). Adding -mmap-stores makes that recovery
// zero-copy: store snapshots are memory-mapped read-only instead of
// decoded into the heap, so warm-restart time is independent of how
// many gigabytes of distance triangles are on disk.
//
// Adding -paged-stores instead (mutually exclusive with -mmap-stores)
// serves every distance store as a paged view over its snapshot file,
// windowed through one process-wide LRU page cache capped by
// -store-budget-bytes: total resident triangle bytes stay under the
// budget no matter how many graphs are registered, and fresh builds
// stream straight into their snapshot file without ever materializing
// the triangle in the heap — the out-of-core mode for distance data
// larger than RAM. The cache's occupancy and fault traffic appear
// under "registry.page_cache" in GET /v1/stats and as
// lopserve_store_page_cache_* gauges on /metrics, next to the
// per-backing lopserve_store_bytes / lopserve_store_file_bytes
// footprint gauges.
//
// PATCH /v1/graphs/{id} derives new registered graphs by edge diffs:
// the child is content-addressed like any registration, carries a
// lineage record (parent id + diff), and hydrates its distance stores
// by incrementally repairing the parent's warm store instead of
// rebuilding APSP from scratch (counters: registry.mutations,
// registry.repairs, registry.repair_fallbacks on /v1/stats).
// -disable-store-repair forces the rebuild path for debugging.
//
// The wire contract lives in the exported api package; the official Go
// client (package client) and examples/client consume it. Endpoints
// (see docs/API.md for the full reference):
//
//	GET  /v1/healthz      liveness probe (also at legacy /healthz)
//	POST /v1/graphs       register a graph (content-addressed; see -preload)
//	GET  /v1/graphs       list registered graphs
//	GET/PATCH/DELETE /v1/graphs/{id}  (PATCH derives a lineage-tracked child)
//	GET/PUT /v1/graphs/{id}/snapshot  export/install a graph + its warm
//	                      distance stores (peer hydration; see loprouter)
//	POST /v1/properties
//	POST /v1/opacity
//	POST /v1/anonymize
//	POST /v1/kiso
//	POST /v1/audit
//	POST /v1/continuous_audit  per-step opacity over a mutation stream
//	POST /v1/replay
//	POST /v1/batch        heterogeneous operations, one shared graph ref
//	POST /v1/jobs         submit any POST operation async
//	GET  /v1/jobs/{id}    poll status/result
//	DELETE /v1/jobs/{id}  cancel
//	GET  /v1/jobs/{id}/events  NDJSON stream of lifecycle + progress
//	GET  /v1/stats        cache, registry, and queue counters
//
// The process shuts down cleanly on SIGINT/SIGTERM: in-flight HTTP
// requests drain for up to 10 seconds, then the async job pool is
// closed — queued jobs are cancelled, running jobs have their contexts
// cancelled, and the workers are awaited within the same deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// stringList collects a repeatable string flag (-auth-token).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("auth token must be non-empty")
	}
	*s = append(*s, v)
	return nil
}

// preload is one -preload directive: a built-in dataset key and the
// generation seed, written on the command line as "key=seed" (a bare
// "key" selects seed 1).
type preload struct {
	key  string
	seed int64
}

// preloadList collects repeated -preload flags.
type preloadList []preload

func (p *preloadList) String() string {
	parts := make([]string, len(*p))
	for i, pl := range *p {
		parts[i] = fmt.Sprintf("%s=%d", pl.key, pl.seed)
	}
	return strings.Join(parts, ",")
}

func (p *preloadList) Set(v string) error {
	key, seedStr, hasSeed := strings.Cut(v, "=")
	if key == "" {
		return fmt.Errorf("preload %q: want key=seed", v)
	}
	seed := int64(1)
	if hasSeed {
		var err error
		seed, err = strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return fmt.Errorf("preload %q: bad seed: %w", v, err)
		}
	}
	*p = append(*p, preload{key: key, seed: seed})
	return nil
}

func main() {
	var preloads preloadList
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxBody      = flag.Int64("max-body", 8<<20, "maximum request body bytes")
		maxVerts     = flag.Int("max-vertices", 20000, "maximum graph size accepted")
		maxBudget    = flag.Duration("max-budget", 30*time.Second, "per-request anonymization wall-clock cap")
		workers      = flag.Int("workers", 0, "async job worker goroutines (0 selects 4)")
		queue        = flag.Int("queue", 0, "async job queue depth before 429s (0 selects 64)")
		cacheEntries = flag.Int("cache-entries", 0, "content-addressed result cache capacity (0 selects 256)")
		jobTTL       = flag.Duration("job-ttl", 0, "retention of finished async jobs (0 selects 15m)")
		graphs       = flag.Int("graphs", 0, "graph registry capacity (0 selects 64)")
		storesPer    = flag.Int("stores-per-graph", 0, "cached distance stores per registered graph (0 selects 4)")
		maxBatch     = flag.Int("max-batch", 0, "operations accepted per POST /v1/batch request (0 selects 64)")
		dataDir      = flag.String("data-dir", "", "snapshot directory for registry persistence (empty disables)")
		mmapStores   = flag.Bool("mmap-stores", false, "hydrate persisted distance stores at boot as read-only memory-mapped views (requires -data-dir)")
		pagedStores  = flag.Bool("paged-stores", false, "serve distance stores as paged views over their snapshot files, capped by -store-budget-bytes (requires -data-dir; excludes -mmap-stores)")
		storeBudget  = flag.Int64("store-budget-bytes", 0, "resident byte ceiling for the paged-store page cache (0 selects 256 MiB; used with -paged-stores)")
		noRepair     = flag.Bool("disable-store-repair", false, "hydrate PATCH-derived graphs' distance stores by full rebuild instead of incremental repair (debugging escape hatch)")
		rateLimit    = flag.Float64("rate-limit", 0, "per-client request rate in req/s; 0 disables rate limiting")
		rateBurst    = flag.Int("rate-burst", 0, "token-bucket burst capacity (0 selects 2x rate-limit)")
		rateQuota    = flag.Int64("rate-quota", 0, "lifetime request quota per client; 0 means unlimited")
		requestLog   = flag.String("request-log", "stderr", "structured JSON request log destination: stderr, stdout, or off")
	)
	var authTokens stringList
	flag.Var(&authTokens, "auth-token", "bearer token required on every request (repeatable; empty disables auth)")
	flag.Var(&preloads, "preload", "register a built-in dataset at boot as key=seed (repeatable)")
	flag.Parse()

	var logDest io.Writer
	switch *requestLog {
	case "stderr":
		logDest = os.Stderr
	case "stdout":
		logDest = os.Stdout
	case "off":
		logDest = nil
	default:
		log.Fatalf("lopserve: -request-log must be stderr, stdout, or off, got %q", *requestLog)
	}

	cfg := server.Config{
		MaxBodyBytes:       *maxBody,
		MaxVertices:        *maxVerts,
		MaxBudget:          *maxBudget,
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheEntries:       *cacheEntries,
		JobTTL:             *jobTTL,
		GraphCapacity:      *graphs,
		StoresPerGraph:     *storesPer,
		MaxBatchItems:      *maxBatch,
		DataDir:            *dataDir,
		MappedStores:       *mmapStores,
		PagedStores:        *pagedStores,
		StoreBudgetBytes:   *storeBudget,
		DisableStoreRepair: *noRepair,
		AuthTokens:         authTokens,
		RateLimit:          *rateLimit,
		RateBurst:          *rateBurst,
		RateQuota:          *rateQuota,
		RequestLog:         logDest,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("lopserve: %v", err)
	}

	api := server.New(cfg)
	for _, pl := range preloads {
		id, err := api.RegisterDataset(pl.key, pl.seed)
		if err != nil {
			log.Fatalf("lopserve: preload %s: %v", pl.key, err)
		}
		log.Printf("lopserve: preloaded %s (seed %d) as graph %s", pl.key, pl.seed, id)
	}
	serve(buildServer(*addr, cfg, api), api)
}

// buildServer assembles the http.Server with production timeouts around
// the given handler.
func buildServer(addr string, cfg server.Config, handler http.Handler) *http.Server {
	// Mirror server.Config's zero-value default so the write deadline
	// always exceeds the budget the handler will actually grant.
	maxBudget := cfg.MaxBudget
	if maxBudget <= 0 {
		maxBudget = 30 * time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		// Anonymization runs can legitimately take the whole budget;
		// give responses headroom beyond it.
		WriteTimeout: maxBudget + 15*time.Second,
		IdleTimeout:  60 * time.Second,
	}
}

// serve runs the server until it fails or the process receives
// SIGINT/SIGTERM, then drains in-flight requests and the async job
// pool.
func serve(srv *http.Server, api *server.Server) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("lopserve listening on %s", srv.Addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("lopserve: %v", err)
		}
	case <-ctx.Done():
		log.Print("lopserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("lopserve: shutdown: %v", err)
		}
		// Drain the async subsystem second, inside whatever remains of
		// the deadline: a poller that got its response during Shutdown
		// has already seen the job state it is owed.
		if err := api.Close(shutdownCtx); err != nil {
			log.Printf("lopserve: job drain: %v", err)
		}
	}
}
