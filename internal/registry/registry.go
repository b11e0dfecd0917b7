// Package registry implements the server's content-addressed graph
// registry: graphs are parsed and validated once, stored under the
// SHA-256 digest of their canonical edge set, and reused across
// requests. Beneath each graph the registry caches built distance
// stores keyed by L alone — a store's identity is (graph digest, L),
// because every engine and backing yields identical cells and the
// backing follows from L — so the dominant cost of the serving
// workload, APSP construction, is paid once per (graph, threshold)
// instead of once per request.
//
// Content addressing gives the registry its semantics for free: two
// registrations of the same effective graph (any edge order, either
// endpoint order per edge) resolve to the same id, and the id doubles
// as an integrity check — a client that knows the digest of the graph
// it means to query can verify the server is holding exactly that
// graph. Both the graph map and the per-graph store cache are bounded
// LRUs, so a long-lived server cannot accumulate unbounded parsed
// graphs or distance matrices.
//
// Registered graphs are immutable and safe for concurrent use: every
// operation in this codebase treats its input graph as read-only
// (the anonymizers clone before mutating), and cached stores are only
// ever read after construction. A graph evicted or deleted while a
// request still holds it keeps working for that request; it simply
// stops being findable.
package registry

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	lopacity "repro"
	"repro/internal/apsp"
	"repro/internal/graph"
)

// Config bounds the registry's two LRU layers and optionally points it
// at a snapshot directory.
type Config struct {
	// MaxGraphs caps registered graphs; the least recently used graph
	// (and its cached stores) is evicted on overflow. Zero selects 64.
	MaxGraphs int
	// MaxStoresPerGraph caps cached distance stores per graph. Zero
	// selects 4.
	MaxStoresPerGraph int
	// Dir, when non-empty, enables persistence: graphs and built
	// distance stores are snapshotted write-through into this
	// directory and recovered at construction, so a restarted process
	// serves its first graph_ref queries with zero APSP builds. See
	// persist.go for the format and the failure policy.
	Dir string
	// PagedStores, when set (and Dir is), serves store snapshots as
	// paged views (apsp.PagedStore): cells are windowed through a
	// shared LRU page cache capped at StoreBudgetBytes, so total
	// resident triangle bytes stay bounded no matter how many graphs
	// and thresholds are cached — the out-of-core mode for triangles
	// larger than RAM. A warm restart costs one header read per store,
	// not a read-and-decode of every byte; the per-cell validation the
	// heap decode performs is deferred to the first Clone (the header,
	// dimensions, and payload length are still checked at open). Fresh
	// builds stream straight into their snapshot file and are served
	// paged from the first request — the triangle is never
	// materialized in the heap.
	PagedStores bool
	// StoreBudgetBytes caps the resident bytes of the shared page
	// cache when PagedStores is set. Zero selects 256 MiB; budgets
	// below one page (64 KiB) are raised to one page.
	StoreBudgetBytes int64
	// DisableRepair turns off lineage-based store repair: graphs
	// registered via Mutate hydrate their distance stores with a full
	// build even when the parent's store is warm. The zero value keeps
	// repair on — it is an escape hatch for debugging, not a tuning
	// knob (repair produces cell-identical stores).
	DisableRepair bool
}

// defaultStoreBudgetBytes is the page-cache ceiling when PagedStores is
// enabled without an explicit -store-budget-bytes.
const defaultStoreBudgetBytes = 256 << 20

func (c *Config) setDefaults() {
	if c.MaxGraphs == 0 {
		c.MaxGraphs = 64
	}
	if c.MaxStoresPerGraph == 0 {
		c.MaxStoresPerGraph = 4
	}
	if c.StoreBudgetBytes == 0 {
		c.StoreBudgetBytes = defaultStoreBudgetBytes
	}
}

// Validate rejects negative capacities; zero values select defaults.
// When Dir is set, Validate also creates the snapshot directory and
// probes it for writability, so a server booted with an unusable data
// directory fails at startup with a clear error instead of silently
// persisting nothing.
func (c Config) Validate() error {
	if c.MaxGraphs < 0 {
		return fmt.Errorf("registry: graph capacity must be >= 0, got %d", c.MaxGraphs)
	}
	if c.MaxStoresPerGraph < 0 {
		return fmt.Errorf("registry: stores per graph must be >= 0, got %d", c.MaxStoresPerGraph)
	}
	if c.StoreBudgetBytes < 0 {
		return fmt.Errorf("registry: store budget must be >= 0 bytes, got %d", c.StoreBudgetBytes)
	}
	if c.PagedStores && c.Dir == "" {
		return fmt.Errorf("registry: paged stores require a data dir (the snapshot file is the backing)")
	}
	if c.Dir != "" {
		if err := os.MkdirAll(c.Dir, 0o755); err != nil {
			return fmt.Errorf("registry: data dir: %w", err)
		}
		probe := filepath.Join(c.Dir, tmpPrefix+"probe")
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			return fmt.Errorf("registry: data dir not writable: %w", err)
		}
		os.Remove(probe)
	}
	return nil
}

// Canonicalize validates an edge list against the simple-graph model
// and returns its canonical form: every edge as (min, max), the list
// sorted lexicographically. Out-of-range endpoints, self-loops, and
// duplicate edges (including reversed duplicates such as [0,1] and
// [1,0]) are errors: the canonical edge set must be in bijection with
// the graph it denotes, or content addressing breaks — two requests
// for the same effective graph would hash to different ids.
// Every rejection names the offending edge and its index in the input
// list, so a 400 from upload or PATCH tells the client which element
// of its edge array to fix rather than only which rule it broke.
func Canonicalize(n int, edges [][2]int) ([][2]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: n must be positive")
	}
	// Track each edge's original input index through the sort: duplicate
	// detection happens on the sorted list, but the error must point at
	// a position in the list the client actually sent.
	idx := make([]int, len(edges))
	out := make([][2]int, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge [%d, %d] at index %d out of range for n=%d", u, v, i, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop [%d, %d] at index %d not allowed in a simple graph", u, v, i)
		}
		if u > v {
			u, v = v, u
		}
		out[i] = [2]int{u, v}
		idx[i] = i
	}
	sort.Sort(&canonSort{edges: out, idx: idx})
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			// Blame the later of the two input positions: the first
			// occurrence is legitimate, the repeat is the defect.
			at := idx[i]
			if idx[i-1] > at {
				at = idx[i-1]
			}
			return nil, fmt.Errorf("graph: duplicate edge [%d, %d] at index %d not allowed in a simple graph", out[i][0], out[i][1], at)
		}
	}
	return out, nil
}

// canonSort sorts a canonical edge list lexicographically while
// carrying each edge's original input index along, with the index as a
// final tiebreak so equal edges land in input order (the duplicate
// error then blames a deterministic position).
type canonSort struct {
	edges [][2]int
	idx   []int
}

func (s *canonSort) Len() int { return len(s.edges) }

func (s *canonSort) Less(i, j int) bool {
	a, b := s.edges[i], s.edges[j]
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return s.idx[i] < s.idx[j]
}

func (s *canonSort) Swap(i, j int) {
	s.edges[i], s.edges[j] = s.edges[j], s.edges[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
}

// Digest returns the hex SHA-256 content address of a canonical edge
// set (as produced by Canonicalize) on n vertices. The encoding is a
// fixed-width binary stream — vertex count, then each endpoint — so
// the digest is stable across processes and releases.
func Digest(n int, canonical [][2]int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(n)
	for _, e := range canonical {
		put(e[0])
		put(e[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeSlot is the build-once cell for a cached store. The sync.Once
// makes concurrent first requests for the same L share a single APSP
// build instead of racing duplicate ones; ready flips
// (after store is assigned) for lock-free peeking by CachedDistances.
type storeSlot struct {
	once  sync.Once
	store apsp.Store
	ready atomic.Bool
}

type storeEntry struct {
	l    int
	slot *storeSlot
}

// Graph is one registered graph: parsed once, content-addressed, with
// an LRU cache of built distance stores beneath it. Everything except
// the store cache is immutable after construction, so a Graph may be
// shared freely across concurrent requests. The entry holds one graph:
// raw is the adjacency and pub exposes it to the public API without a
// copy. edges keeps the canonical edge list the content address and
// every request's cache key are computed from.
type Graph struct {
	id      string
	edges   [][2]int
	raw     *graph.Graph
	pub     *lopacity.Graph
	reg     *Registry
	lineage *Lineage // non-nil iff registered via Mutate (or recovered)

	mu         sync.Mutex
	stores     map[int]*list.Element // by L
	storeOrder *list.List            // front = most recently used
	maxStores  int
	detached   bool // no longer in the registry; stop aggregate accounting
}

// ID returns the graph's content address (hex SHA-256 of the canonical
// edge set).
func (g *Graph) ID() string { return g.id }

// N returns the vertex count.
func (g *Graph) N() int { return g.raw.N() }

// M returns the edge count.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the canonical sorted edge set. The slice is shared:
// callers must treat it as read-only.
func (g *Graph) Edges() [][2]int { return g.edges }

// Degrees returns the degree sequence in a fresh slice.
func (g *Graph) Degrees() []int { return g.raw.Degrees() }

// Public returns the graph as the public-API type. The graph is shared
// across requests; callers must not mutate it (every operation in this
// codebase already treats its input graph as read-only).
func (g *Graph) Public() *lopacity.Graph { return g.pub }

// StoreCount returns the number of currently cached distance stores.
func (g *Graph) StoreCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.storeOrder.Len()
}

// seedStore installs a store recovered from a snapshot into the
// graph's cache with its build already "spent", so the first request
// for it counts as a hit with zero APSP builds. It reports false when
// the per-graph cache is full or a store for L is already present.
// Called only during boot-time load, before the registry is shared.
func (g *Graph) seedStore(l int, st apsp.Store) bool {
	if _, ok := g.stores[l]; ok || g.storeOrder.Len() >= g.maxStores {
		return false
	}
	slot := &storeSlot{store: st}
	slot.once.Do(func() {}) // consume the build
	slot.ready.Store(true)
	g.stores[l] = g.storeOrder.PushFront(&storeEntry{l: l, slot: slot})
	g.reg.stores.Add(1)
	return true
}

// CachedDistances returns the store for L only when it is already
// built, refreshing its recency and counting a hit — it
// never triggers (or waits for) an APSP build. Callers that should not
// make the registry build and keep a store (the audit path, which on a
// miss builds a private store for its census and drops it) use this
// instead of Store, so a cold registry is left as it was. A slot whose
// build is still in flight reports absent.
func (g *Graph) CachedDistances(L int) (apsp.Store, bool) {
	g.mu.Lock()
	el, ok := g.stores[L]
	var slot *storeSlot
	if ok {
		g.storeOrder.MoveToFront(el)
		slot = el.Value.(*storeEntry).slot
	}
	g.mu.Unlock()
	if !ok || !slot.ready.Load() {
		return nil, false
	}
	g.reg.storeHits.Add(1)
	return slot.store, true
}

// Distances returns Store(L). The engine and kind are ignored hints,
// kept as parameters for callers that pass them: every engine and
// backing yields the one store for L.
func (g *Graph) Distances(L int, _ apsp.Engine, _ apsp.Kind) (apsp.Store, bool) {
	return g.Store(L)
}

// Store returns the graph's L-capped distance store, building it on
// first use and serving the cached store afterwards. The bool reports
// reuse: true means no APSP build happened on this call (either the
// store was cached, or a concurrent caller's in-flight build was
// joined). Returned stores are shared and must be treated as
// read-only.
func (g *Graph) Store(L int) (apsp.Store, bool) {
	g.mu.Lock()
	var slot *storeSlot
	if el, ok := g.stores[L]; ok {
		g.storeOrder.MoveToFront(el)
		slot = el.Value.(*storeEntry).slot
	} else {
		if g.storeOrder.Len() >= g.maxStores {
			oldest := g.storeOrder.Back()
			g.storeOrder.Remove(oldest)
			evicted := oldest.Value.(*storeEntry)
			delete(g.stores, evicted.l)
			g.reg.storeEvictions.Add(1)
			if !g.detached {
				g.reg.stores.Add(-1)
				if ps := pagedStoreOf(evicted.slot); ps != nil {
					// A paged store's snapshot file IS its backing:
					// deleting it would break the evicted view for
					// requests still holding it and forfeit the warm
					// boot. Eviction reclaims the cache pages; the
					// bytes stay on disk.
					ps.DropPages()
				} else if p := g.reg.persist; p != nil {
					p.deleteFile(storeFile(g.id, evicted.l))
				}
			}
		}
		slot = &storeSlot{}
		g.stores[L] = g.storeOrder.PushFront(&storeEntry{l: L, slot: slot})
		if !g.detached {
			g.reg.stores.Add(1)
		}
	}
	g.mu.Unlock()

	built := false
	fileBacked := false
	slot.once.Do(func() {
		// Lineage-first hydration: a graph registered via Mutate tries
		// to repair its parent's warm store through the recorded diff —
		// O(balls touched around the edited edges) instead of the full
		// O(n·m) rebuild, and no build is counted because none happened.
		// Repair serves from an overlay over the parent's store; the
		// write-through below snapshots it, so the next boot hydrates
		// this store directly with no parent needed.
		if st := g.reg.tryRepair(g, L); st != nil {
			slot.store = st
			slot.ready.Store(true)
			built = true
			return
		}
		start := time.Now()
		// Build-through-to-file: with paged residency the snapshot is
		// not a copy of the store, it IS the store. The triangle
		// streams straight into a temp file during the sweep (never
		// materialized in heap), is renamed into place, and the served
		// view opens over the final file. Any failure falls back to the
		// classic heap build + write-through.
		if g.reg.persist != nil && g.reg.cfg.PagedStores {
			slot.store = g.reg.buildThroughFile(g.raw, g.id, L)
			fileBacked = slot.store != nil
		}
		if slot.store == nil {
			slot.store = apsp.Build(g.raw, L, apsp.BuildOptions{})
		}
		g.reg.recordBuild(time.Since(start))
		slot.ready.Store(true)
		built = true
	})
	if built {
		g.reg.storeMisses.Add(1)
		// Write-through: snapshot the freshly built store so a restart
		// starts warm — unless the graph was deleted mid-build, whose
		// file cleanup already ran. A file-backed build already wrote its
		// snapshot, so it only needs the mid-build-delete undo (the open
		// view keeps serving this request off the unlinked file). If
		// this slot was concurrently evicted above, the file may briefly
		// outlive the cache entry; the next boot just reloads it as a
		// valid cached store.
		if p := g.reg.persist; p != nil {
			g.mu.Lock()
			detached := g.detached
			g.mu.Unlock()
			switch {
			case detached && fileBacked:
				p.deleteFile(storeFile(g.id, L))
			case !detached && !fileBacked:
				p.saveStore(g.id, L, slot.store)
			}
		}
	} else {
		g.reg.storeHits.Add(1)
	}
	return slot.store, !built
}

// pagedStoreOf returns the slot's store as a paged view, or nil when
// the slot is unbuilt or backed some other way.
func pagedStoreOf(slot *storeSlot) *apsp.PagedStore {
	if !slot.ready.Load() {
		return nil
	}
	ps, _ := slot.store.(*apsp.PagedStore)
	return ps
}

// buildThroughFile streams a fresh APSP build straight into its
// snapshot file — temp name first, then an atomic rename, so a crash
// mid-sweep leaves only a quarantinable .tmp- partial — and opens the
// result as a paged view. It returns nil when any step fails; the
// caller falls back to a heap build and the registry keeps serving.
func (r *Registry) buildThroughFile(raw *graph.Graph, id string, L int) apsp.Store {
	p := r.persist
	name := storeFile(id, L)
	tmp := filepath.Join(p.dir, tmpPrefix+name)
	if err := apsp.BuildToFile(tmp, raw, L, apsp.BuildOptions{}); err != nil {
		os.Remove(tmp)
		p.writeErrors.Add(1)
		return nil
	}
	final := filepath.Join(p.dir, name)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		p.writeErrors.Add(1)
		return nil
	}
	p.storeWrites.Add(1)
	st, err := apsp.OpenPagedStore(final, r.pages)
	if err != nil {
		// The snapshot itself is durable (BuildToFile synced before the
		// rename); only this process's view failed. Serve from the heap
		// for now — the file still warms the next boot.
		return nil
	}
	return st
}

// Stats is a point-in-time snapshot of registry effectiveness.
type Stats struct {
	// Graphs is the current number of registered graphs; Capacity the
	// LRU bound.
	Graphs, Capacity int
	// Hits and Misses count Get lookups; Evictions counts graphs
	// displaced by the LRU bound (explicit deletes are not evictions).
	Hits, Misses, Evictions int64
	// Stores is the current number of cached distance stores across all
	// registered graphs.
	Stores int
	// StoreHits counts Distances calls served without an APSP build;
	// StoreMisses counts calls that built; StoreEvictions counts stores
	// displaced by either LRU layer.
	StoreHits, StoreMisses, StoreEvictions int64
	// Builds counts completed APSP builds; BuildMSTotal and BuildMSMax
	// aggregate their wall-clock cost in milliseconds. Together with
	// StoreHits they answer the capacity-planning question directly
	// from /v1/stats: how much build time the cache is absorbing, and
	// how bad the worst cold build has been.
	Builds, BuildMSTotal, BuildMSMax int64
	// Mutations counts child graphs registered via Mutate. Repairs
	// counts store hydrations served by repairing a parent's store
	// (no APSP build); RepairFallbacks counts lineage-bearing
	// hydrations that had to build anyway (parent or its store gone,
	// or the diff too large for repair to win); RepairMSTotal
	// aggregates repair wall-clock in milliseconds. Repairs vs
	// RepairFallbacks is the dynamic-graph effectiveness ratio, the
	// same way StoreHits vs Builds is the cache's.
	Mutations, Repairs, RepairFallbacks, RepairMSTotal int64
	// Hydrations counts graphs installed from a peer snapshot via
	// InstallSnapshot; HydratedStores counts the distance stores
	// adopted alongside them — builds this replica never paid.
	Hydrations, HydratedStores int64
	// StoreBytes and StoreFileBytes aggregate the cached stores'
	// footprints by backing name ("compact", "packed", "paged",
	// "overlay"): heap-resident bytes and file-backed bytes
	// respectively. Together they answer "where do my triangles live" —
	// a heap deployment shows bytes only in StoreBytes, and a paged one
	// shows file bytes per store plus a heap residency bounded by the
	// page budget.
	StoreBytes, StoreFileBytes map[string]int64
	// PageCache reports the shared paged-store cache (zero value when
	// paged hydration is disabled).
	PageCache apsp.PageCacheStats
	// Persist reports the snapshot layer (zero value when disabled).
	Persist PersistStats
}

// Registry is a concurrency-safe, LRU-bounded map from content address
// to registered graph.
type Registry struct {
	cfg     Config
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List      // front = most recently used
	persist *persister      // nil when persistence is disabled
	pages   *apsp.PageCache // shared page budget; nil unless PagedStores

	hits, misses, evictions                atomic.Int64
	stores                                 atomic.Int64
	storeHits, storeMisses, storeEvictions atomic.Int64
	builds, buildMSTotal, buildMSMax       atomic.Int64
	mutations                              atomic.Int64
	repairs, repairFallbacks               atomic.Int64
	repairMSTotal                          atomic.Int64
	hydrations, hydratedStores             atomic.Int64
}

// recordBuild folds one completed APSP build into the timing
// aggregates. The max is maintained with a CAS loop — builds race.
func (r *Registry) recordBuild(d time.Duration) {
	ms := d.Milliseconds()
	r.builds.Add(1)
	r.buildMSTotal.Add(ms)
	for {
		cur := r.buildMSMax.Load()
		if ms <= cur || r.buildMSMax.CompareAndSwap(cur, ms) {
			return
		}
	}
}

// New returns a registry, recovering any snapshots when Config.Dir is
// set. It panics on a Config that fails Validate — a misconfiguration
// that must surface at startup.
func New(cfg Config) *Registry {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.setDefaults()
	r := &Registry{
		cfg:     cfg,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
	if cfg.PagedStores {
		r.pages = apsp.NewPageCache(cfg.StoreBudgetBytes)
	}
	if cfg.Dir != "" {
		r.persist = &persister{dir: cfg.Dir}
		r.loadFromDisk()
	}
	return r
}

// insertLoadedGraph registers a graph recovered from a snapshot. It
// mirrors the construction in Put but skips canonicalization (the
// loader already validated it) and does not write back to disk. Called
// only during loadFromDisk, before the registry is shared.
func (r *Registry) insertLoadedGraph(id string, n int, canonical [][2]int) *Graph {
	raw := graph.FromPairs(n, canonical)
	ent := &Graph{
		id:         id,
		edges:      canonical,
		raw:        raw,
		pub:        lopacity.WrapGraph(raw),
		reg:        r,
		stores:     make(map[int]*list.Element),
		storeOrder: list.New(),
		maxStores:  r.cfg.MaxStoresPerGraph,
	}
	r.entries[id] = r.order.PushFront(ent)
	return ent
}

// Put registers the graph described by (n, edges), returning the
// already-registered entry when the canonical edge set is present
// (created = false). The edge list is validated and canonicalized; the
// same errors a request-level graph validation would raise (range,
// self-loop, duplicate) are returned here.
func (r *Registry) Put(n int, edges [][2]int) (g *Graph, created bool, err error) {
	canonical, err := Canonicalize(n, edges)
	if err != nil {
		return nil, false, err
	}
	id := Digest(n, canonical)
	r.mu.Lock()
	if el, ok := r.entries[id]; ok {
		r.order.MoveToFront(el)
		ent := el.Value.(*Graph)
		r.mu.Unlock()
		return ent, false, nil
	}
	r.mu.Unlock()

	// Build outside the lock: adjacency construction is O(n + m) and
	// must not block concurrent lookups. A lost registration race is
	// resolved below in favor of the first writer.
	raw := graph.FromPairs(n, canonical)
	ent := &Graph{
		id:         id,
		edges:      canonical,
		raw:        raw,
		pub:        lopacity.WrapGraph(raw),
		reg:        r,
		stores:     make(map[int]*list.Element),
		storeOrder: list.New(),
		maxStores:  r.cfg.MaxStoresPerGraph,
	}
	r.mu.Lock()
	if el, ok := r.entries[id]; ok {
		r.order.MoveToFront(el)
		existing := el.Value.(*Graph)
		r.mu.Unlock()
		return existing, false, nil
	}
	for r.order.Len() >= r.cfg.MaxGraphs {
		r.dropLocked(r.order.Back(), true)
	}
	r.entries[id] = r.order.PushFront(ent)
	r.mu.Unlock()
	// Write-through outside the lock: snapshot IO must not stall
	// concurrent lookups. A Delete racing this write may run its file
	// removal before the snapshot lands, so re-check membership after
	// writing and undo the snapshot if the graph is already gone —
	// otherwise the deleted graph would resurrect on the next boot.
	if r.persist != nil {
		r.persist.saveGraph(ent)
		r.mu.Lock()
		_, still := r.entries[id]
		r.mu.Unlock()
		if !still {
			r.persist.deleteFile(graphFile(id))
		}
	}
	return ent, true, nil
}

// Get returns the registered graph for id, refreshing its recency and
// recording a hit or miss.
func (r *Registry) Get(id string) (*Graph, bool) {
	r.mu.Lock()
	el, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		r.misses.Add(1)
		return nil, false
	}
	r.order.MoveToFront(el)
	ent := el.Value.(*Graph)
	r.mu.Unlock()
	r.hits.Add(1)
	return ent, true
}

// Delete removes the graph with the given id, reporting whether it was
// present. Requests still holding the graph keep working; its stores
// just stop counting toward the registry.
//
// Deleting a graph that has Mutate-derived children is allowed and
// does not cascade: each child carries its full canonical edge set, so
// it keeps serving (and stays mutable) with its lineage record intact
// as provenance. Only the repair fast path degrades — a child whose
// stores are not yet hydrated falls back to a full build, counted in
// Stats.RepairFallbacks.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[id]
	if !ok {
		return false
	}
	r.dropLocked(el, false)
	return true
}

// dropLocked unlinks an entry, detaches it from aggregate store
// accounting, and removes its snapshot files. Callers hold r.mu.
func (r *Registry) dropLocked(el *list.Element, evicted bool) {
	ent := el.Value.(*Graph)
	r.order.Remove(el)
	delete(r.entries, ent.id)
	ent.mu.Lock()
	n := int64(ent.storeOrder.Len())
	ent.detached = true
	for el := ent.storeOrder.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		if ps := pagedStoreOf(e.slot); ps != nil {
			// Reclaim the shared page budget now; the view itself stays
			// usable for requests still holding it (the open fd keeps
			// the unlinked file readable) and closes via finalizer.
			ps.DropPages()
		}
		if r.persist != nil {
			r.persist.deleteFile(storeFile(ent.id, e.l))
		}
	}
	if r.persist != nil {
		r.persist.deleteFile(graphFile(ent.id))
		if ent.lineage != nil {
			r.persist.deleteFile(lineageFile(ent.id))
		}
	}
	ent.mu.Unlock()
	r.stores.Add(-n)
	if evicted {
		r.evictions.Add(1)
		r.storeEvictions.Add(n)
	}
}

// List returns the registered graphs, most recently used first.
func (r *Registry) List() []*Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Graph, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Graph))
	}
	return out
}

// Len returns the current number of registered graphs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.Len()
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	graphs := r.order.Len()
	storeBytes := make(map[string]int64)
	storeFileBytes := make(map[string]int64)
	for el := r.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*Graph)
		ent.mu.Lock()
		for se := ent.storeOrder.Front(); se != nil; se = se.Next() {
			slot := se.Value.(*storeEntry).slot
			if !slot.ready.Load() {
				continue // build in flight: nothing resident yet
			}
			heap, file := apsp.Footprint(slot.store)
			name := apsp.BackingName(slot.store)
			storeBytes[name] += heap
			storeFileBytes[name] += file
		}
		ent.mu.Unlock()
	}
	r.mu.Unlock()
	var pc apsp.PageCacheStats
	if r.pages != nil {
		pc = r.pages.Stats()
	}
	return Stats{
		StoreBytes:      storeBytes,
		StoreFileBytes:  storeFileBytes,
		PageCache:       pc,
		Graphs:          graphs,
		Capacity:        r.cfg.MaxGraphs,
		Hits:            r.hits.Load(),
		Misses:          r.misses.Load(),
		Evictions:       r.evictions.Load(),
		Stores:          int(r.stores.Load()),
		StoreHits:       r.storeHits.Load(),
		StoreMisses:     r.storeMisses.Load(),
		StoreEvictions:  r.storeEvictions.Load(),
		Builds:          r.builds.Load(),
		BuildMSTotal:    r.buildMSTotal.Load(),
		BuildMSMax:      r.buildMSMax.Load(),
		Mutations:       r.mutations.Load(),
		Repairs:         r.repairs.Load(),
		RepairFallbacks: r.repairFallbacks.Load(),
		RepairMSTotal:   r.repairMSTotal.Load(),
		Hydrations:      r.hydrations.Load(),
		HydratedStores:  r.hydratedStores.Load(),
		Persist:         r.persist.stats(),
	}
}
