// Package server implements the lopserve REST API: graph anonymization,
// privacy auditing, and property reporting over HTTP with JSON bodies.
//
// The wire contract — every request/response struct, the structured
// error envelope, and the stable error codes — lives in the exported
// package api; this package only binds those types to HTTP. The
// handler is a plain http.Handler so callers can mount it under any
// mux, wrap it with middleware, or exercise it with httptest.
// Endpoints:
//
//	GET  /v1/healthz     liveness probe (also at legacy /healthz)
//	GET  /v1/datasets    list the built-in calibrated dataset keys
//	POST /v1/dataset     generate a built-in dataset deterministically
//	POST /v1/properties  structural properties of a graph
//	POST /v1/opacity     L-opacity report for a graph
//	POST /v1/anonymize   run an anonymization method
//	POST /v1/kiso        k-isomorphism anonymization
//	POST /v1/audit       adversary audit of a published graph
//	POST /v1/continuous_audit L-opacity after each step of a mutation stream
//	POST /v1/replay      verify an anonymization audit trail
//	POST /v1/batch       run heterogeneous operations in one request
//	POST /v1/graphs      register a graph in the content-addressed registry
//	GET  /v1/graphs      list registered graphs
//	GET  /v1/graphs/{id} metadata of a registered graph
//	DELETE /v1/graphs/{id} unregister a graph
//	POST /v1/jobs        submit any POST operation as an async job
//	GET  /v1/jobs/{id}   job status, progress timestamps, and result
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	GET  /v1/jobs/{id}/events NDJSON stream of job lifecycle + progress
//	GET  /v1/stats       cache, registry, and job-queue counters
//	GET  /metrics        Prometheus text exposition of the same
//
// Every route is wrapped by the internal/obs middleware chain —
// request IDs (X-Request-ID, generated or honored, echoed on every
// response and threaded into async job events), structured JSON
// request logging (Config.RequestLog), per-route Prometheus metrics,
// bearer-token authentication (Config.AuthTokens), and per-client
// token-bucket rate limiting (Config.RateLimit) — with /healthz,
// /v1/healthz, and /metrics exempt from auth and rate limiting so
// probes and scrapes never get 401/429.
//
// Every request body is a JSON document containing a graph as
// {"n": vertexCount, "edges": [[u,v], ...]}, or — once the graph is
// registered via POST /v1/graphs — a "graph_ref" naming its content
// address, which skips both the JSON re-parse and (for opacity) the
// APSP rebuild on every subsequent request. Errors come back with a
// 4xx/5xx status and an api.ErrorResponse body: the legacy top-level
// "error" string plus the structured {"code", "message", "details"}
// envelope under "error_detail". Request bodies are capped at
// Config.MaxBodyBytes and anonymization runs at Config.MaxBudget of
// wall-clock time, so a single request cannot pin the process.
//
// Opacity and anonymize results are additionally memoized in a
// content-addressed cache (see internal/jobs): requests that hash to
// the same canonical key — same graph, threshold, and parameters — are
// served byte-identically from the cache
// unless the request opts out with "cache": "off". Every operation a
// batch item or job can name is declared once, in the wire operation
// table api.Ops, which also yields its route; ops.go binds each entry
// to its validator. Long-running work
// can be submitted to the bounded worker pool via /v1/jobs instead of
// holding an HTTP connection open, and watched live via the events
// stream; see docs/API.md for the full reference.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	lopacity "repro"
	"repro/api"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Config bounds the server's resource use and sets the distance-compute
// defaults.
type Config struct {
	// MaxBodyBytes caps request bodies; zero selects 8 MiB.
	MaxBodyBytes int64
	// MaxVertices rejects graphs larger than this; zero selects 20000.
	MaxVertices int
	// MaxBudget caps (and defaults) the per-request anonymization
	// wall-clock budget; zero selects 30 s.
	MaxBudget time.Duration
	// Workers is the async job pool size; zero selects 4.
	Workers int
	// QueueDepth bounds waiting async jobs; submissions beyond it get
	// 429. Zero selects 64.
	QueueDepth int
	// CacheEntries caps the content-addressed result cache; zero
	// selects 256.
	CacheEntries int
	// JobTTL is how long finished jobs stay pollable; zero selects
	// 15 minutes.
	JobTTL time.Duration
	// GraphCapacity caps the content-addressed graph registry (LRU);
	// zero selects 64.
	GraphCapacity int
	// StoresPerGraph caps cached distance stores per registered graph
	// (LRU); zero selects 4.
	StoresPerGraph int
	// MaxBatchItems caps the number of operations one POST /v1/batch
	// request may carry; zero selects 64.
	MaxBatchItems int
	// DataDir, when non-empty, enables registry persistence: every
	// registered graph and built distance store is snapshotted
	// write-through into this directory and recovered at startup, so a
	// warm-restarted server answers its first graph_ref queries with
	// zero APSP builds. Empty disables persistence (the pre-existing
	// in-memory behavior).
	DataDir string
	// PagedStores, when set (with DataDir), serves distance stores as
	// paged views over their snapshot files, windowed through one
	// process-wide LRU page cache capped at StoreBudgetBytes: total
	// resident triangle bytes stay under the budget no matter how many
	// graphs and thresholds are cached, and fresh builds stream
	// straight to disk instead of materializing in the heap — the
	// out-of-core mode for triangles larger than RAM. See
	// registry.Config.PagedStores for the validation tradeoff.
	PagedStores bool
	// StoreBudgetBytes caps the paged-store page cache; zero selects
	// 256 MiB. Meaningful only with PagedStores.
	StoreBudgetBytes int64
	// DisableStoreRepair turns off lineage-based incremental store
	// repair: graphs derived via PATCH hydrate their distance stores
	// with a full APSP build even when the parent's store is warm. The
	// zero value keeps repair on; repaired stores are cell-identical
	// to rebuilt ones, so this is a debugging escape hatch.
	DisableStoreRepair bool
	// AuthTokens, when non-empty, requires every request to present
	// one of these bearer tokens (Authorization: Bearer <token>).
	// Liveness probes (/healthz, /v1/healthz) and the /metrics scrape
	// endpoint are exempt, so load balancers and Prometheus need no
	// credentials. Empty disables authentication.
	AuthTokens []string
	// RateLimit, when positive, enforces a per-client token-bucket
	// rate limit of this many requests per second. Clients are keyed
	// by bearer token when AuthTokens is set, by remote host
	// otherwise; the exempt endpoints above are never limited. Zero
	// disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity (requests a client may
	// issue back-to-back after idling); zero selects 2*RateLimit,
	// minimum 1. Meaningful only with RateLimit.
	RateBurst int
	// RateQuota, when positive, caps the total requests one client may
	// issue over the process lifetime (429 quota_exceeded beyond it).
	// Zero means unlimited. Meaningful only with RateLimit.
	RateQuota int64
	// RequestLog, when non-nil, receives one structured JSON line per
	// request (obs.AccessRecord): method, path, status, duration, and
	// the request ID. Nil disables request logging.
	RequestLog io.Writer
}

func (c *Config) setDefaults() {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 20000
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxBatchItems == 0 {
		c.MaxBatchItems = 64
	}
	// Workers, QueueDepth, and JobTTL defaults live in jobs.Config so
	// the jobs package stays usable on its own.
}

// Validate rejects unusable server-wide settings: a negative pool size
// would otherwise panic mid-construction.
func (c Config) Validate() error {
	c.setDefaults()
	if c.CacheEntries < 0 {
		return fmt.Errorf("server config: cache entries must be >= 0, got %d", c.CacheEntries)
	}
	if c.MaxBatchItems < 0 {
		return fmt.Errorf("server config: max batch items must be >= 0, got %d", c.MaxBatchItems)
	}
	if err := c.jobsConfig().Validate(); err != nil {
		return fmt.Errorf("server config: %w", err)
	}
	if err := c.registryConfig().Validate(); err != nil {
		return fmt.Errorf("server config: %w", err)
	}
	if c.RateLimit < 0 {
		return fmt.Errorf("server config: rate limit must be >= 0 req/s, got %v", c.RateLimit)
	}
	if c.RateLimit > 0 {
		if err := c.limiterConfig().Validate(); err != nil {
			return fmt.Errorf("server config: %w", err)
		}
	}
	return nil
}

// limiterConfig maps the server knobs onto the obs package's limiter
// Config.
func (c Config) limiterConfig() obs.LimiterConfig {
	return obs.LimiterConfig{Rate: c.RateLimit, Burst: c.RateBurst, Quota: c.RateQuota}
}

// registryConfig maps the server knobs onto the registry package's own
// Config.
func (c Config) registryConfig() registry.Config {
	return registry.Config{
		MaxGraphs: c.GraphCapacity, MaxStoresPerGraph: c.StoresPerGraph,
		Dir: c.DataDir, PagedStores: c.PagedStores,
		StoreBudgetBytes: c.StoreBudgetBytes,
		DisableRepair:    c.DisableStoreRepair,
	}
}

// jobsConfig maps the server knobs onto the jobs package's own Config.
func (c Config) jobsConfig() jobs.Config {
	return jobs.Config{Workers: c.Workers, QueueDepth: c.QueueDepth, TTL: c.JobTTL}
}

// New returns the REST server, which serves HTTP directly (it is an
// http.Handler) and owns an async worker pool — call Close on shutdown
// to drain it. New panics on a Config that fails Validate — an
// operator misconfiguration that must fail at startup, not per
// request; call Config.Validate first to surface the error gracefully.
func New(cfg Config) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.setDefaults()
	s := &Server{
		cfg:   cfg,
		jobs:  jobs.NewManager(cfg.jobsConfig()),
		cache: jobs.NewCache(cfg.CacheEntries),
		reg:   registry.New(cfg.registryConfig()),
	}
	s.metrics = obs.NewHTTPMetrics(obs.NewRegistry())
	s.stats = newStatsGauges(s.metrics.Registry())
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/graphs", s.handleGraphs)
	mux.HandleFunc("/v1/graphs/{id}", s.handleGraphByID)
	mux.HandleFunc("/v1/graphs/{id}/snapshot", s.handleGraphSnapshot)
	for _, op := range operations {
		mux.HandleFunc("/v1/"+op.name, post(func(w http.ResponseWriter, r *http.Request) { op.serve(s, w, r) }))
	}
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	mux.HandleFunc("/v1/batch", post(s.handleBatch))
	mux.HandleFunc("/v1/jobs", post(s.handleJobSubmit))
	mux.HandleFunc("/v1/jobs/{id}", s.handleJobByID)
	mux.HandleFunc("/v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	s.handler = s.buildChain(mux)
	return s
}

// Server is the REST API plus its async execution state: the job
// worker pool and the content-addressed result cache shared by the
// synchronous and asynchronous paths — wrapped in the obs middleware
// chain (request IDs, logging, metrics, auth, rate limiting).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler
	jobs    *jobs.Manager
	cache   *jobs.Cache
	reg     *registry.Registry
	metrics *obs.HTTPMetrics
	stats   *statsGauges
}

// ServeHTTP serves through the middleware chain, then the route table;
// *Server is mountable under any mux, exactly as the previous
// bare-handler API was.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close drains the async subsystem: queued jobs are cancelled, running
// jobs have their contexts cancelled, and Close waits for the workers
// to exit or ctx to expire. The HTTP routes keep answering (returning
// 503 for new job submissions), so call http.Server.Shutdown first and
// Close second.
func (s *Server) Close(ctx context.Context) error {
	return s.jobs.Close(ctx)
}

// handleHealthz is the liveness probe: no auth, no body parsing, no
// state touched, so load balancers probing it never contend with real
// traffic. GET and HEAD only.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, api.HealthResponse{Status: "ok"})
	case http.MethodHead:
		w.WriteHeader(http.StatusOK)
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodHead)
	}
}

// validateGraphBounds applies the server-level vertex-count rules —
// the validation shared by every path that accepts a wire graph
// (toGraph inline, register), so the two can never classify the same
// defect differently. Edge-level rules live in registry.Canonicalize;
// its failures are classified by invalidEdge.
func (s *Server) validateGraphBounds(gj api.Graph) error {
	if gj.N > s.cfg.MaxVertices {
		return fmt.Errorf("graph: n=%d exceeds server limit %d", gj.N, s.cfg.MaxVertices)
	}
	if gj.N <= 0 {
		return errors.New("graph: n must be positive")
	}
	return nil
}

// invalidEdge classifies a registry.Canonicalize failure: edge-level
// validation gets the invalid_edge code so clients can distinguish a
// bad edge list from a bad parameter.
func invalidEdge(err error) error {
	return codedError(http.StatusBadRequest, api.CodeInvalidEdge, err)
}

// ToGraph validates the wire form against the server limits and builds
// the graph. Validation is registry.Canonicalize — the same rules
// (range, self-loop, duplicate incl. reversed) under which graphs are
// content-addressed — so an inline graph and its registered twin can
// never disagree about what counts as valid, and the edge set built
// here is always in bijection with what the cache and registry keys
// hash.
func (s *Server) toGraph(gj api.Graph) (*lopacity.Graph, error) {
	if err := s.validateGraphBounds(gj); err != nil {
		return nil, err
	}
	canonical, err := registry.Canonicalize(gj.N, gj.Edges)
	if err != nil {
		return nil, invalidEdge(err)
	}
	return lopacity.FromEdges(gj.N, canonical), nil
}

// resolveGraph produces an operation's input graph from either an
// inline wire graph or a registry reference; exactly one form must be
// present. The returned registry entry is non-nil only on the ref
// path, where callers can reuse the canonical edge set and the cached
// distance stores. An unknown reference is a 404 with code
// graph_not_found: the resource named by the request does not exist.
func (s *Server) resolveGraph(gj api.Graph, ref string) (*lopacity.Graph, *registry.Graph, error) {
	if ref == "" {
		g, err := s.toGraph(gj)
		return g, nil, err
	}
	if gj.N != 0 || len(gj.Edges) != 0 {
		return nil, nil, errors.New("graph: provide graph or graph_ref, not both")
	}
	ent, ok := s.reg.Get(ref)
	if !ok {
		return nil, nil, graphNotFound(ref)
	}
	return ent.Public(), ent, nil
}

func graphJSON(g *lopacity.Graph) api.Graph {
	return api.Graph{N: g.N(), Edges: g.Edges()}
}

// post restricts a handler to the POST method, advertising the allowed
// method set on rejection per RFC 9110.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		h(w, r)
	}
}

// decode reads a size-capped JSON body into v, rejecting unknown fields
// so client typos surface as errors instead of silently defaulting, and
// rejecting trailing data after the document so a concatenated body
// like `{"l":2}{"garbage":true}` cannot masquerade as a valid request.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return false
		}
		writeError(w, http.StatusBadRequest, errors.New("invalid request body: trailing data after JSON document"))
		return false
	}
	return true
}

func pairsOrEmpty(ps [][2]int) [][2]int {
	if ps == nil {
		return [][2]int{}
	}
	return ps
}
