// In-process end-to-end tests: real lopserve handlers on real TCP
// listeners behind a real router, so failover, hydration, and restart
// re-admission are exercised exactly as deployed — only the process
// boundaries are missing.
package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/server"
)

// backend is one lopserve instance on a stable address, stoppable and
// restartable (fresh empty state, same address) mid-test.
type backend struct {
	t    *testing.T
	addr string
	base string
	srv  *http.Server
}

func startBackendOn(t *testing.T, addr string) *backend {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // the old listener's port may still be releasing
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	b := &backend{
		t:    t,
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: server.New(server.Config{})},
	}
	b.base = "http://" + b.addr
	go b.srv.Serve(ln)
	t.Cleanup(b.stop)
	return b
}

func startBackend(t *testing.T) *backend { return startBackendOn(t, "127.0.0.1:0") }

func (b *backend) stop() { b.srv.Close() }

// restart replaces the backend with a fresh empty instance on the
// same address — a crashed-and-replaced peer.
func (b *backend) restart() *backend {
	b.t.Helper()
	b.stop()
	return startBackendOn(b.t, b.addr)
}

// tier is N backends behind one router.
type tier struct {
	t        *testing.T
	rt       *Router
	proxy    *httptest.Server
	backends []*backend
}

func startTier(t *testing.T, n int) *tier { return startTierClient(t, n, nil) }

// startTierClient is startTier with the router's outbound client.
func startTierClient(t *testing.T, n int, client *http.Client) *tier {
	t.Helper()
	tr := &tier{t: t}
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		b := startBackend(t)
		tr.backends = append(tr.backends, b)
		peers[i] = b.base
	}
	rt, err := New(Config{
		Peers:          peers,
		VNodes:         64,
		HealthInterval: 50 * time.Millisecond,
		FailAfter:      1,
		Client:         client,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tr.rt = rt
	tr.proxy = httptest.NewServer(rt)
	t.Cleanup(tr.proxy.Close)
	return tr
}

// backendFor returns the backend owning key, and one that does not.
func (tr *tier) backendFor(key string) (owner, other *backend) {
	addr := tr.rt.Ring().Owner(key)
	for _, b := range tr.backends {
		if b.base == addr {
			owner = b
		} else {
			other = b
		}
	}
	return owner, other
}

// postJSON posts v and returns the status and raw body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

var testEdges = [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}}

func testGraph() *api.Graph { return &api.Graph{N: 8, Edges: testEdges} }

func registerViaRouter(t *testing.T, tr *tier) string {
	t.Helper()
	status, body := postJSON(t, tr.proxy.URL+"/v1/graphs", api.GraphRegisterRequest{Graph: testGraph()})
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("register via router: status %d: %s", status, body)
	}
	var reg api.GraphRegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	return reg.ID
}

func TestRouterPlacesRegistrationOnOwner(t *testing.T) {
	tr := startTier(t, 3)
	id := registerViaRouter(t, tr)
	if id != digestOf(testGraph()) {
		t.Fatalf("router registration returned id %s, local digest %s", id, digestOf(testGraph()))
	}
	owner, other := tr.backendFor(id)
	resp, err := http.Get(owner.base + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph not on ring owner %s: status %d", owner.base, resp.StatusCode)
	}
	resp, err = http.Get(other.base + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("graph unexpectedly on non-owner %s: status %d", other.base, resp.StatusCode)
	}
}

func TestRouterOpacityViaOwnerAndStats(t *testing.T) {
	tr := startTier(t, 2)
	id := registerViaRouter(t, tr)
	status, body := postJSON(t, tr.proxy.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2})
	if status != http.StatusOK {
		t.Fatalf("opacity via router: status %d: %s", status, body)
	}
	stats := getJSON[api.StatsResponse](t, tr.proxy.URL+"/v1/stats")
	if stats.Router == nil {
		t.Fatal("router stats section missing")
	}
	if got := len(stats.Router.Ring.Members); got != 2 {
		t.Fatalf("ring members = %d, want 2", got)
	}
	if got := len(stats.Router.Ring.Healthy); got != 2 {
		t.Fatalf("healthy peers = %d, want 2", got)
	}
	if stats.Registry.Graphs != 1 {
		t.Fatalf("aggregate graphs = %d, want 1", stats.Registry.Graphs)
	}
	if len(stats.Router.PerPeer) != 2 {
		t.Fatalf("per_peer entries = %d, want 2", len(stats.Router.PerPeer))
	}
	// The owner's per-peer section holds the graph; the other is empty.
	owner, other := tr.backendFor(id)
	if stats.Router.PerPeer[owner.base].Registry.Graphs != 1 {
		t.Fatalf("owner %s per-peer graphs != 1", owner.base)
	}
	if stats.Router.PerPeer[other.base].Registry.Graphs != 0 {
		t.Fatalf("non-owner %s per-peer graphs != 0", other.base)
	}
}

// TestRouterColdOwnerHydration is the acceptance path: the graph lives
// on a donor peer, the ring owner is cold, and one request through the
// router must (a) succeed, (b) leave the owner hydrated with zero APSP
// builds, (c) answer byte-identically to the donor.
func TestRouterColdOwnerHydration(t *testing.T) {
	tr := startTier(t, 2)
	id := digestOf(testGraph())
	owner, donor := tr.backendFor(id)

	// Seed the graph and a warm store on the NON-owner, bypassing the
	// router — the migration-pending state after a membership change.
	status, body := postJSON(t, donor.base+"/v1/graphs", api.GraphRegisterRequest{Graph: testGraph()})
	if status != http.StatusCreated {
		t.Fatalf("seed donor: status %d: %s", status, body)
	}
	opReq := api.OpacityRequest{GraphRef: id, L: 2, Cache: "off"}
	status, donorBody := postJSON(t, donor.base+"/v1/opacity", opReq)
	if status != http.StatusOK {
		t.Fatalf("donor opacity: status %d: %s", status, donorBody)
	}

	// Through the router: routed to the cold owner, healed by snapshot
	// hydration from the donor.
	status, viaRouter := postJSON(t, tr.proxy.URL+"/v1/opacity", opReq)
	if status != http.StatusOK {
		t.Fatalf("opacity via router against cold owner: status %d: %s", status, viaRouter)
	}
	if !bytes.Equal(viaRouter, donorBody) {
		t.Fatalf("hydrated owner answered differently:\nowner: %s\ndonor: %s", viaRouter, donorBody)
	}

	ownerStats := getJSON[api.StatsResponse](t, owner.base+"/v1/stats")
	if ownerStats.Registry.Hydrations != 1 {
		t.Fatalf("owner hydrations = %d, want 1", ownerStats.Registry.Hydrations)
	}
	if ownerStats.Registry.HydratedStores != 1 {
		t.Fatalf("owner hydrated stores = %d, want 1", ownerStats.Registry.HydratedStores)
	}
	if ownerStats.Registry.Builds != 0 {
		t.Fatalf("owner paid %d APSP builds, want 0 (stores must arrive pre-built)", ownerStats.Registry.Builds)
	}
}

func TestRouterBatchFanoutEquivalence(t *testing.T) {
	tr := startTier(t, 2)
	solo := startBackend(t)

	// Two distinct graphs, likely on different owners; registered on
	// the tier (via router) and on the standalone backend.
	gA := testGraph()
	gB := &api.Graph{N: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}}
	var ids []string
	for _, g := range []*api.Graph{gA, gB} {
		req := api.GraphRegisterRequest{Graph: g}
		if status, body := postJSON(t, tr.proxy.URL+"/v1/graphs", req); status/100 != 2 {
			t.Fatalf("tier register: %d %s", status, body)
		}
		if status, body := postJSON(t, solo.base+"/v1/graphs", req); status/100 != 2 {
			t.Fatalf("solo register: %d %s", status, body)
		}
		ids = append(ids, digestOf(g))
	}

	mk := func(op string, v any) api.BatchItem {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return api.BatchItem{Op: op, Request: b}
	}
	batch := api.BatchRequest{Items: []api.BatchItem{
		mk("opacity", api.OpacityRequest{GraphRef: ids[0], L: 2}),
		mk("opacity", api.OpacityRequest{GraphRef: ids[1], L: 2}),
		mk("properties", api.PropertiesRequest{GraphRef: ids[0]}),
		mk("opacity", api.OpacityRequest{GraphRef: "no-such-graph", L: 2}),
		mk("properties", api.PropertiesRequest{GraphRef: ids[1]}),
	}}

	// The batch goes twice to each side, so that both answer the
	// second from their caches and cache_hit agrees item by item.
	for pass := 1; pass <= 2; pass++ {
		status, soloBody := postJSON(t, solo.base+"/v1/batch", batch)
		if status != http.StatusOK {
			t.Fatalf("pass %d: solo batch: %d %s", pass, status, soloBody)
		}
		status, tierBody := postJSON(t, tr.proxy.URL+"/v1/batch", batch)
		if status != http.StatusOK {
			t.Fatalf("pass %d: tier batch: %d %s", pass, status, tierBody)
		}
		if !bytes.Equal(soloBody, tierBody) {
			t.Fatalf("pass %d: bodies differ:\nsolo: %s\ntier: %s", pass, soloBody, tierBody)
		}
		var resp api.BatchResponse
		if err := json.Unmarshal(tierBody, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(batch.Items) || resp.Succeeded != 4 || resp.Failed != 1 {
			t.Fatalf("pass %d: %d results, %d/%d succeeded/failed, want %d, 4/1",
				pass, len(resp.Results), resp.Succeeded, resp.Failed, len(batch.Items))
		}
		if hit := resp.Results[0].CacheHit; hit != (pass == 2) {
			t.Fatalf("pass %d: opacity item cache_hit %v", pass, hit)
		}
	}
}

func pathGraph(n int) *api.Graph {
	g := &api.Graph{N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, i + 1})
	}
	return g
}

// ownedGraphs returns k path graphs whose ring owner is peer.
func (tr *tier) ownedGraphs(peer string, k int) []*api.Graph {
	var out []*api.Graph
	for n := 3; len(out) < k; n++ {
		if g := pathGraph(n); tr.rt.Ring().Owner(digestOf(g)) == peer {
			out = append(out, g)
		}
	}
	return out
}

func registerOn(t *testing.T, base string, g *api.Graph) {
	t.Helper()
	if status, body := postJSON(t, base+"/v1/graphs", api.GraphRegisterRequest{Graph: g}); status/100 != 2 {
		t.Fatalf("register on %s: %d %s", base, status, body)
	}
}

func batchItem(t *testing.T, op string, v any) api.BatchItem {
	return api.BatchItem{Op: op, Request: mustJSON(t, v)}
}

// TestRouterColdOwnerBatchItem is TestRouterColdOwnerHydration for
// batch items that name their own graph refs: one item alone, one in
// the middle of a batch whose other items the donor owns, and an audit
// whose two graphs are both cold, which takes two healing rounds. The
// cold owner is healed item by item, and the batch answers
// byte-identically to the donor.
func TestRouterColdOwnerBatchItem(t *testing.T) {
	published := &api.Graph{N: 8, Edges: testEdges[:8]}
	opacityOf := func(g *api.Graph) api.OpacityRequest {
		return api.OpacityRequest{GraphRef: digestOf(g), L: 2, Cache: "off"}
	}
	for _, tc := range []struct {
		name  string
		cold  []*api.Graph // on the donor only; the first picks the owner
		items func(t *testing.T, tr *tier, donor *backend) []api.BatchItem
	}{
		{"one item", []*api.Graph{testGraph()}, func(t *testing.T, _ *tier, _ *backend) []api.BatchItem {
			return []api.BatchItem{batchItem(t, "opacity", opacityOf(testGraph()))}
		}},
		{"two owners", []*api.Graph{testGraph()}, func(t *testing.T, tr *tier, donor *backend) []api.BatchItem {
			g := tr.ownedGraphs(donor.base, 1)[0]
			registerOn(t, tr.proxy.URL, g)
			return []api.BatchItem{
				batchItem(t, "opacity", opacityOf(g)),
				batchItem(t, "opacity", opacityOf(testGraph())),
				batchItem(t, "properties", api.PropertiesRequest{GraphRef: digestOf(g)}),
			}
		}},
		{"audit pair", []*api.Graph{published, testGraph()}, func(t *testing.T, _ *tier, _ *backend) []api.BatchItem {
			return []api.BatchItem{batchItem(t, "audit", api.AuditRequest{
				PublishedRef: digestOf(published), OriginalRef: digestOf(testGraph()), L: 2, Theta: 0.5,
			})}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := startTier(t, 2)
			owner, donor := tr.backendFor(digestOf(tc.cold[0]))
			for _, g := range tc.cold {
				registerOn(t, donor.base, g)
			}
			batch := api.BatchRequest{Items: tc.items(t, tr, donor)}

			// The donor answers first, which also warms the stores the
			// owner then hydrates.
			status, want := postJSON(t, donor.base+"/v1/batch", batch)
			if status != http.StatusOK {
				t.Fatalf("donor batch: %d %s", status, want)
			}
			status, got := postJSON(t, tr.proxy.URL+"/v1/batch", batch)
			if status != http.StatusOK {
				t.Fatalf("batch via router: %d %s", status, got)
			}
			var resp api.BatchResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatal(err)
			}
			for _, res := range resp.Results {
				if res.Status != http.StatusOK {
					t.Fatalf("item %d (%s) answered %d: %+v", res.Index, res.Op, res.Status, res.Error)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("healed batch differs from the donor's:\nrouter: %s\ndonor:  %s", got, want)
			}
			stats := getJSON[api.StatsResponse](t, owner.base+"/v1/stats")
			if stats.Registry.Hydrations != int64(len(tc.cold)) || stats.Registry.Builds != 0 {
				t.Fatalf("owner: hydrations=%d builds=%d, want %d/0",
					stats.Registry.Hydrations, stats.Registry.Builds, len(tc.cold))
			}
		})
	}
}

// countingTransport counts the sub-batches the router sends each peer.
type countingTransport struct {
	mu      sync.Mutex
	batches map[string]int // peer base URL -> POST /v1/batch requests
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/batch" {
		c.mu.Lock()
		c.batches[r.URL.Scheme+"://"+r.URL.Host]++
		c.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the counts so far and starts over.
func (c *countingTransport) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.batches
	c.batches = map[string]int{}
	return m
}

// TestRouterBatchOneSubBatchPerPeer sends a batch naming four graphs,
// two owned by each peer: each peer receives exactly one sub-batch, and
// the merged answer equals a standalone backend's. With one peer
// stopped, its items fail over to the survivor, which holds replicas,
// and answer the same bytes; with both stopped, every item answers a
// per-item 502.
func TestRouterBatchOneSubBatchPerPeer(t *testing.T) {
	ct := &countingTransport{batches: map[string]int{}}
	tr := startTierClient(t, 2, &http.Client{Transport: ct})
	solo := startBackend(t)

	owned := map[string][]*api.Graph{}
	for _, b := range tr.backends {
		owned[b.base] = tr.ownedGraphs(b.base, 2)
	}
	var graphs []*api.Graph
	var items []api.BatchItem
	for k := 0; k < 2; k++ {
		for _, b := range tr.backends {
			g := owned[b.base][k]
			graphs = append(graphs, g)
			registerOn(t, tr.proxy.URL, g)
			registerOn(t, solo.base, g)
			id := digestOf(g)
			items = append(items,
				batchItem(t, "opacity", api.OpacityRequest{GraphRef: id, L: 2, Cache: "off"}),
				batchItem(t, "properties", api.PropertiesRequest{GraphRef: id}))
		}
	}
	batch := api.BatchRequest{Items: items}
	status, want := postJSON(t, solo.base+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("solo batch: %d %s", status, want)
	}

	ct.take()
	status, got := postJSON(t, tr.proxy.URL+"/v1/batch", batch)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("tier batch %d differs from solo:\ntier: %s\nsolo: %s", status, got, want)
	}
	sent := ct.take()
	for _, b := range tr.backends {
		if sent[b.base] != 1 {
			t.Fatalf("sub-batches per peer %v, want one for each of the 2 peers", sent)
		}
	}

	for _, g := range graphs {
		for _, b := range tr.backends {
			registerOn(t, b.base, g)
		}
	}
	tr.backends[0].stop()
	status, got = postJSON(t, tr.proxy.URL+"/v1/batch", batch)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("batch after a peer stopped: %d, differs from solo:\ntier: %s\nsolo: %s", status, got, want)
	}

	tr.backends[1].stop()
	status, got = postJSON(t, tr.proxy.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch with every peer stopped: envelope %d, want 200 with per-item errors: %s", status, got)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(items) || resp.Failed != len(items) {
		t.Fatalf("every peer stopped: %d results, %d failed, want %d failed", len(resp.Results), resp.Failed, len(items))
	}
	for i, res := range resp.Results {
		if res.Index != i || res.Status != http.StatusBadGateway || res.Error == nil || res.Error.Code != api.CodeUnavailable {
			t.Fatalf("every peer stopped: item %d = %+v, want 502 unavailable", i, res)
		}
	}
}

// TestRouterBatchFailsOverPerItem stops the owner of two graphs whose
// next candidates differ, on a 3-peer tier whose router still counts
// the owner healthy, so every batch first tries it. Each item then
// fails over to its own next candidate, which holds its graph: no
// graph is copied between peers, and the answer equals a standalone
// backend's. This holds for a batch the stopped owner serves whole and
// for one that also names a survivor's graph, which that survivor
// serves in a sub-batch of its own.
func TestRouterBatchFailsOverPerItem(t *testing.T) {
	var backends []*backend
	var peers []string
	for i := 0; i < 3; i++ {
		b := startBackend(t)
		backends = append(backends, b)
		peers = append(peers, b.base)
	}
	ct := &countingTransport{batches: map[string]int{}}
	rt, err := New(Config{
		Peers: peers, VNodes: 64, HealthInterval: time.Hour, FailAfter: 1000,
		Client: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	proxy := httptest.NewServer(rt)
	t.Cleanup(proxy.Close)
	solo := startBackend(t)

	// Two graphs owned by peers[0]: one next in line for peers[1], one
	// for peers[2]; and one graph peers[1] owns.
	next := map[string]*api.Graph{}
	var own *api.Graph
	for n := 3; len(next) < 2 || own == nil; n++ {
		g := pathGraph(n)
		c := rt.Ring().Candidates(digestOf(g))
		switch {
		case c[0] == peers[0] && next[c[1]] == nil:
			next[c[1]] = g
		case c[0] == peers[1] && own == nil:
			own = g
		}
	}
	for peer, g := range next {
		registerOn(t, peer, g)
		registerOn(t, solo.base, g)
	}
	registerOn(t, peers[1], own)
	registerOn(t, solo.base, own)
	opacityOf := func(g *api.Graph) api.BatchItem {
		return batchItem(t, "opacity", api.OpacityRequest{GraphRef: digestOf(g), L: 2, Cache: "off"})
	}
	backends[0].stop()

	for _, tc := range []struct {
		name  string
		items []api.BatchItem
		sent  []int // sub-batches peers[1] and peers[2] receive
	}{
		{"one owner", []api.BatchItem{opacityOf(next[peers[1]]), opacityOf(next[peers[2]])}, []int{1, 1}},
		{"two owners", []api.BatchItem{opacityOf(own), opacityOf(next[peers[2]]), opacityOf(next[peers[1]])}, []int{2, 1}},
	} {
		batch := api.BatchRequest{Items: tc.items}
		status, want := postJSON(t, solo.base+"/v1/batch", batch)
		if status != http.StatusOK {
			t.Fatalf("%s: solo batch: %d %s", tc.name, status, want)
		}
		ct.take()
		status, got := postJSON(t, proxy.URL+"/v1/batch", batch)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: tier batch %d differs from solo:\ntier: %s\nsolo: %s", tc.name, status, got, want)
		}
		if h := rt.gauges.hydrationsOK.Load(); h != 0 {
			t.Fatalf("%s: %d graphs copied between peers, want 0", tc.name, h)
		}
		sent := ct.take()
		if sent[peers[1]] != tc.sent[0] || sent[peers[2]] != tc.sent[1] {
			t.Fatalf("%s: sub-batches per peer %v, want %v to the survivors", tc.name, sent, tc.sent)
		}
	}
}

// TestRouterPoolsPeerConnections holds eight requests open on one peer
// at once, twice: the default outbound client pools all eight
// connections, so the second round dials none.
func TestRouterPoolsPeerConnections(t *testing.T) {
	const k = 8
	var dials atomic.Int64
	var mu sync.Mutex
	var release chan struct{}
	arrivals := make(chan struct{}, k)
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/opacity" {
			mu.Lock()
			rel := release
			mu.Unlock()
			arrivals <- struct{}{}
			<-rel
		}
		w.Write([]byte("{}"))
	}))
	peer.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	peer.Start()
	t.Cleanup(peer.Close)
	rt, err := New(Config{Peers: []string{peer.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	round := func() {
		mu.Lock()
		release = make(chan struct{})
		rel := release
		mu.Unlock()
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(front.URL+"/v1/opacity", "application/json",
					bytes.NewReader([]byte(`{"graph_ref":"g","l":2}`)))
				if err != nil {
					t.Error(err)
					return
				}
				drainClose(resp)
			}()
		}
		for i := 0; i < k; i++ {
			select {
			case <-arrivals:
			case <-time.After(10 * time.Second):
				close(rel)
				wg.Wait()
				t.Fatalf("only %d of %d requests reached the peer at once", i, k)
			}
		}
		close(rel)
		wg.Wait()
	}
	round()
	first := dials.Load()
	round()
	if again := dials.Load() - first; again != 0 {
		t.Fatalf("second round of %d concurrent requests dialed %d new connections (first round %d), want 0",
			k, again, first)
	}
}

func TestRouterForwardsRequestID(t *testing.T) {
	tr := startTier(t, 2)
	id := registerViaRouter(t, tr)

	const rid = "e2e-test-request-id-42"
	body, err := json.Marshal(api.JobSubmitRequest{Op: "opacity", Request: mustJSON(t, api.OpacityRequest{GraphRef: id, L: 2})})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, tr.proxy.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("job submit via router: status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("router response X-Request-ID = %q, want %q", got, rid)
	}
	var job api.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	// The backend stamped the SAME id on the job it accepted: the id
	// crossed the router->backend hop intact.
	if job.RequestID != rid {
		t.Fatalf("backend job RequestID = %q, want %q (id lost across the hop)", job.RequestID, rid)
	}

	// The job lifecycle follows the placement through the router too.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := getJSON[api.JobResponse](t, tr.proxy.URL+"/v1/jobs/"+job.ID)
		if j.State == "done" {
			break
		}
		if j.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job did not finish: state %s", j.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRouterFailoverAndReadmission is the kill/restart drill: ops on a
// dead owner fail over to the survivor; after the owner returns empty,
// the next request migrates the graph home via snapshot hydration.
func TestRouterFailoverAndReadmission(t *testing.T) {
	tr := startTier(t, 2)
	id := registerViaRouter(t, tr)
	opReq := api.OpacityRequest{GraphRef: id, L: 2, Cache: "off"}
	status, want := postJSON(t, tr.proxy.URL+"/v1/opacity", opReq)
	if status != http.StatusOK {
		t.Fatalf("warm opacity: %d %s", status, want)
	}
	owner, survivor := tr.backendFor(id)

	// Copy the graph to the survivor (replication), then kill the owner.
	snap, err := http.Get(owner.base + "/v1/graphs/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snapBody, err := io.ReadAll(snap.Body)
	snap.Body.Close()
	if err != nil || snap.StatusCode != http.StatusOK {
		t.Fatalf("snapshot from owner: status %d err %v", snap.StatusCode, err)
	}
	putReq, err := http.NewRequest(http.MethodPut, survivor.base+"/v1/graphs/"+id+"/snapshot", bytes.NewReader(snapBody))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode/100 != 2 {
		t.Fatalf("install on survivor: status %d", putResp.StatusCode)
	}

	owner.stop()

	// The op fails over to the survivor and still answers, identically.
	status, got := postJSON(t, tr.proxy.URL+"/v1/opacity", opReq)
	if status != http.StatusOK {
		t.Fatalf("opacity after owner death: %d %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover answer differs:\ngot:  %s\nwant: %s", got, want)
	}

	// Restart the owner empty and wait for re-admission.
	restarted := owner.restart()
	waitHealthy(t, tr.rt, restarted.base)

	// Next request routes home, finds the owner cold, and re-hydrates
	// it from the survivor — builds stay zero on the restarted owner.
	status, got = postJSON(t, tr.proxy.URL+"/v1/opacity", opReq)
	if status != http.StatusOK {
		t.Fatalf("opacity after re-admission: %d %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-hydrated answer differs:\ngot:  %s\nwant: %s", got, want)
	}
	stats := getJSON[api.StatsResponse](t, restarted.base+"/v1/stats")
	if stats.Registry.Hydrations != 1 || stats.Registry.Builds != 0 {
		t.Fatalf("restarted owner: hydrations=%d builds=%d, want 1/0",
			stats.Registry.Hydrations, stats.Registry.Builds)
	}
}

func waitHealthy(t *testing.T, rt *Router, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range rt.healthyPeers() {
			if p == addr {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("peer %s was not re-admitted", addr)
}

func TestRouterAllPeersDown(t *testing.T) {
	tr := startTier(t, 2)
	id := registerViaRouter(t, tr)
	for _, b := range tr.backends {
		b.stop()
	}
	status, body := postJSON(t, tr.proxy.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2})
	if status != http.StatusBadGateway {
		t.Fatalf("status %d with every peer down, want 502: %s", status, body)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("502 body is not the error envelope: %s", body)
	}
	if er.Err == nil || er.Err.Code != api.CodeUnavailable {
		t.Fatalf("502 code = %v, want unavailable", er.Err)
	}
}

func TestRouterMergesGraphLists(t *testing.T) {
	tr := startTier(t, 2)
	idA := registerViaRouter(t, tr)
	gB := &api.Graph{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	if status, body := postJSON(t, tr.proxy.URL+"/v1/graphs", api.GraphRegisterRequest{Graph: gB}); status/100 != 2 {
		t.Fatalf("register B: %d %s", status, body)
	}
	list := getJSON[api.GraphListResponse](t, tr.proxy.URL+"/v1/graphs")
	if len(list.Graphs) != 2 {
		t.Fatalf("merged list has %d graphs, want 2", len(list.Graphs))
	}
	found := map[string]bool{}
	for _, g := range list.Graphs {
		found[g.ID] = true
	}
	if !found[idA] || !found[digestOf(gB)] {
		t.Fatalf("merged list %v missing a registered graph", found)
	}
}

func TestRouterHealthz(t *testing.T) {
	tr := startTier(t, 2)
	resp, err := http.Get(tr.proxy.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestRouterMetricsExposition(t *testing.T) {
	tr := startTier(t, 2)
	id := registerViaRouter(t, tr)
	if status, body := postJSON(t, tr.proxy.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2}); status != http.StatusOK {
		t.Fatalf("opacity: %d %s", status, body)
	}
	resp, err := http.Get(tr.proxy.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"loprouter_ring_members 2",
		"loprouter_ring_vnodes 64",
		"loprouter_peer_healthy",
		"loprouter_peer_requests_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
