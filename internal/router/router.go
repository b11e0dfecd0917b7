// Package router is the sharded serving tier's front door: a thin
// HTTP proxy that consistent-hashes graph digests onto a ring of
// lopserve backends and forwards each request to the peer that owns
// its graph. One backend's registry and APSP store cache thus serve
// every request for a given graph, so the tier's aggregate store
// memory scales with the number of peers instead of every peer
// rebuilding every graph.
//
// The router speaks the same v1 wire contract as a single lopserve:
// clients point at the router and do not change. Routing is by content
// address — graph_ref (or published_ref / original_ref) when present,
// else the digest of the inline graph, computed locally with the same
// canonicalization the registry uses. Batch requests fan out as one
// sub-batch per owning peer and merge in order; job endpoints follow
// the peer that accepted the submission; everything else picks a
// healthy peer.
//
// When the owner is down, requests fail over along the ring's
// deterministic candidate order. When the owner is up but cold — a
// restarted or newly added peer that misses a graph another peer still
// holds — the router hydrates it: fetch the graph's snapshot envelope
// from a donor peer, install it on the owner, retry the request (for a
// batch, only the items that missed). That single mechanism heals
// restarts and migrates graphs to their ring owner after membership
// changes, with zero APSP rebuilds.
package router

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config configures a Router. Peers is required; everything else has
// a serviceable default.
type Config struct {
	// Peers are the lopserve base URLs forming the ring, e.g.
	// "http://127.0.0.1:8080". Order does not matter; placement depends
	// only on the set.
	Peers []string
	// VNodes is the number of virtual nodes per peer (default 64).
	VNodes int
	// HealthInterval is the active probe period (default 2s); it also
	// bounds each probe's timeout.
	HealthInterval time.Duration
	// FailAfter is the number of consecutive failures (probe or
	// forwarded-request transport errors) that ejects a peer (default 2).
	FailAfter int
	// MaxBodyBytes caps buffered request bodies (default 32 MiB —
	// large enough for any JSON document lopserve itself accepts).
	MaxBodyBytes int64
	// MaxJobRoutes caps the job-id -> peer routing table (default 4096).
	MaxJobRoutes int
	// RequestLog, when non-nil, receives one JSON line per request.
	RequestLog io.Writer
	// Client overrides the outbound HTTP client (tests). The default
	// client has no overall timeout, since job event streams are
	// long-lived, and pools idle connections to each peer.
	Client *http.Client
}

// idleConnsPerPeer is how many idle connections to each peer the
// default outbound client keeps. A client request in flight mostly
// holds one connection per peer, so this pools one for each of up to
// 64 concurrent requests; with Go's default of 2, every request beyond
// two re-dials. 64 is a round ceiling, not a measured concurrency.
const idleConnsPerPeer = 64

func (c *Config) setDefaults() {
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.FailAfter == 0 {
		c.FailAfter = 2
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxJobRoutes == 0 {
		c.MaxJobRoutes = 4096
	}
}

// Validate rejects configurations the router cannot serve with.
func (c *Config) Validate() error {
	if len(c.Peers) == 0 {
		return fmt.Errorf("router: at least one -peer is required")
	}
	for _, p := range c.Peers {
		u, err := url.Parse(p)
		if err != nil {
			return fmt.Errorf("router: peer %q: %w", p, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return fmt.Errorf("router: peer %q: scheme must be http or https", p)
		}
		if u.Host == "" {
			return fmt.Errorf("router: peer %q: missing host", p)
		}
		if u.Path != "" && u.Path != "/" {
			return fmt.Errorf("router: peer %q: must not carry a path", p)
		}
	}
	if c.VNodes < 0 || c.FailAfter < 0 || c.MaxBodyBytes < 0 || c.MaxJobRoutes < 0 {
		return fmt.Errorf("router: negative limits make no sense")
	}
	if c.HealthInterval < 0 {
		return fmt.Errorf("router: negative health interval")
	}
	return nil
}

// NormalizePeer makes a -peer flag value a base URL: a bare host:port
// gets the http scheme, and any trailing slash is dropped.
func NormalizePeer(p string) string {
	p = strings.TrimRight(strings.TrimSpace(p), "/")
	if p == "" {
		return p
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	return p
}

// Router is the proxy. It implements http.Handler.
type Router struct {
	cfg     Config
	ring    *Ring
	order   []string // ring members, sorted — iteration order everywhere
	peers   map[string]*peerState
	httpc   *http.Client
	mux     *http.ServeMux
	handler http.Handler

	metrics *obs.HTTPMetrics
	gauges  *routerGauges

	jobs *jobRoutes

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a Router and starts its health prober. Call Close on
// shutdown.
func New(cfg Config) (*Router, error) {
	cfg.setDefaults()
	for i, p := range cfg.Peers {
		cfg.Peers[i] = NormalizePeer(p)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	httpc := cfg.Client
	if httpc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0 // the per-peer cap bounds the pool
		tr.MaxIdleConnsPerHost = idleConnsPerPeer
		httpc = &http.Client{Transport: tr}
	}
	rt := &Router{
		cfg:   cfg,
		ring:  ring,
		order: ring.Members(),
		peers: make(map[string]*peerState, len(cfg.Peers)),
		httpc: httpc,
		mux:   http.NewServeMux(),
		jobs:  newJobRoutes(cfg.MaxJobRoutes),
		done:  make(chan struct{}),
	}
	for _, addr := range rt.order {
		rt.peers[addr] = newPeerState(addr)
	}
	rt.metrics = obs.NewHTTPMetrics(obs.NewRegistry())
	rt.gauges = newRouterGauges(rt.metrics.Registry())
	rt.initRingGauges()

	rt.routes()
	mw := []obs.Middleware{obs.RequestID()}
	if cfg.RequestLog != nil {
		mw = append(mw, obs.Logger(cfg.RequestLog))
	}
	mw = append(mw, rt.metrics.Middleware(rt.routeOf))
	rt.handler = obs.Chain(mw...)(rt.mux)

	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// routes installs the route table. Single-graph operations share one
// body-sniffing forwarder; the rest have dedicated strategies.
func (rt *Router) routes() {
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/v1/stats", rt.handleStats)

	for _, op := range []string{
		"/v1/properties", "/v1/opacity", "/v1/anonymize",
		"/v1/kiso", "/v1/audit", "/v1/continuous_audit", "/v1/replay",
	} {
		rt.mux.HandleFunc(op, rt.handleGraphOp)
	}
	rt.mux.HandleFunc("/v1/dataset", rt.handleAnyPeer)
	rt.mux.HandleFunc("/v1/datasets", rt.handleAnyPeer)

	rt.mux.HandleFunc("/v1/graphs", rt.handleGraphs)
	rt.mux.HandleFunc("/v1/graphs/{id}", rt.handleGraphByID)
	rt.mux.HandleFunc("/v1/graphs/{id}/snapshot", rt.handleGraphByID)

	rt.mux.HandleFunc("/v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("/v1/jobs", rt.handleJobSubmit)
	rt.mux.HandleFunc("/v1/jobs/{id}", rt.handleJobByID)
	rt.mux.HandleFunc("/v1/jobs/{id}/events", rt.handleJobEvents)
}

// ServeHTTP dispatches through the middleware chain.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// Close stops the health prober. In-flight proxied requests are not
// interrupted; the owning http.Server's shutdown handles those.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// Ring exposes the placement function (tests, stats).
func (rt *Router) Ring() *Ring { return rt.ring }

// routeOf bounds metric label cardinality by the route table.
func (rt *Router) routeOf(r *http.Request) string {
	_, pattern := rt.mux.Handler(r)
	if pattern == "" {
		return "unmatched"
	}
	return pattern
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":        "ok",
			"peers":         len(rt.order),
			"healthy_peers": len(rt.healthyPeers()),
		})
	case http.MethodHead:
		w.WriteHeader(http.StatusOK)
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodHead)
	}
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	rt.refreshHealthGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.Registry().WritePrometheus(w)
}

func errHTTPStatus(code int) error {
	return fmt.Errorf("http status %d", code)
}

// drainClose releases a response's connection for reuse.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
