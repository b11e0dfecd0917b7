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

func startTier(t *testing.T, n int) *tier {
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
