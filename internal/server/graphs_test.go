package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	lopacity "repro"

	"repro/api"
)

// registerGraph POSTs a graph to /v1/graphs and returns its id.
func registerGraph(t *testing.T, baseURL string, gj api.Graph) string {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/graphs", api.GraphRegisterRequest{Graph: &gj})
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	return decodeBody[api.GraphRegisterResponse](t, resp).ID
}

func TestGraphRegisterRoundTrip(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()

	resp := postJSON(t, ts.URL+"/v1/graphs", api.GraphRegisterRequest{Graph: &fig})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first register: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/graphs/") {
		t.Fatalf("Location=%q", loc)
	}
	first := decodeBody[api.GraphRegisterResponse](t, resp)
	if !first.Created || first.N != 7 || first.M != 10 {
		t.Fatalf("register response: %+v", first)
	}

	// Same effective graph, edges permuted and endpoints reversed: the
	// content address must dedupe to the existing entry.
	permuted := api.Graph{N: 7, Edges: make([][2]int, len(fig.Edges))}
	for i, e := range fig.Edges {
		permuted.Edges[len(fig.Edges)-1-i] = [2]int{e[1], e[0]}
	}
	resp = postJSON(t, ts.URL+"/v1/graphs", api.GraphRegisterRequest{Graph: &permuted})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: status %d", resp.StatusCode)
	}
	second := decodeBody[api.GraphRegisterResponse](t, resp)
	if second.Created || second.ID != first.ID {
		t.Fatalf("re-register response: %+v (want existing id %s)", second, first.ID)
	}

	// List and fetch.
	listResp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	list := decodeBody[api.GraphListResponse](t, listResp)
	if len(list.Graphs) != 1 || list.Graphs[0].ID != first.ID {
		t.Fatalf("list: %+v", list)
	}
	infoResp, err := http.Get(ts.URL + "/v1/graphs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer infoResp.Body.Close()
	info := decodeBody[api.GraphInfo](t, infoResp)
	if info.N != 7 || info.M != 10 {
		t.Fatalf("info: %+v", info)
	}

	// Delete, then 404.
	del := deleteJob(t, ts.URL+"/v1/graphs/"+first.ID)
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
	gone, err := http.Get(ts.URL + "/v1/graphs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("after delete: status %d, want 404", gone.StatusCode)
	}
}

func TestGraphRegisterDataset(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/graphs", api.GraphRegisterRequest{Dataset: "gnutella100", Seed: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset register: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	reg := decodeBody[api.GraphRegisterResponse](t, resp)
	if reg.N != 100 {
		t.Fatalf("n=%d, want 100", reg.N)
	}

	// Registering the equivalent graph inline dedupes to the same id:
	// the dataset is deterministic, the address is content-derived.
	g, err := lopacity.Dataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := registerGraph(t, ts.URL, api.Graph{N: g.N(), Edges: g.Edges()}); got != reg.ID {
		t.Fatalf("inline spelling of the dataset got id %s, dataset got %s", got, reg.ID)
	}

	for name, body := range map[string]api.GraphRegisterRequest{
		"unknown dataset": {Dataset: "no-such-dataset"},
		"both forms":      {Graph: &api.Graph{N: 2, Edges: [][2]int{{0, 1}}}, Dataset: "gnutella100"},
		"neither form":    {},
	} {
		resp := postJSON(t, ts.URL+"/v1/graphs", body)
		want := http.StatusBadRequest
		if name == "unknown dataset" {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, want)
		}
	}
}

func TestGraphRegisterValidation(t *testing.T) {
	_, ts := newTestAPI(t, Config{MaxVertices: 10})
	for name, gj := range map[string]api.Graph{
		"duplicate edge":  {N: 3, Edges: [][2]int{{0, 1}, {0, 1}}},
		"reversed dup":    {N: 3, Edges: [][2]int{{0, 1}, {1, 0}}},
		"self-loop":       {N: 3, Edges: [][2]int{{1, 1}}},
		"over the limit":  {N: 11},
		"zero vertices":   {N: 0},
		"edge out of rng": {N: 3, Edges: [][2]int{{0, 7}}},
	} {
		resp := postJSON(t, ts.URL+"/v1/graphs", api.GraphRegisterRequest{Graph: &gj})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestOpacityRefMatchesInline is the cross-form contract: the same
// opacity request via inline graph and via graph_ref returns
// byte-identical bodies, and the two forms occupy a single result-cache
// entry (the ref canonicalizes to the digest the inline edge set
// hashes to).
func TestOpacityRefMatchesInline(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)

	// Cache off on both sides so each response is computed on its own
	// path, not replayed.
	inline := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: fig, L: 2, Cache: "off"}))
	ref := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2, Cache: "off"}))
	if !bytes.Equal(inline, ref) {
		t.Fatalf("inline and ref responses differ:\n%s\n%s", inline, ref)
	}

	// Cache on: the inline miss populates one entry, the ref request
	// hits it — shared key, shared entry, byte-identical replay.
	first := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: fig, L: 2}))
	second := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2}))
	if !bytes.Equal(first, second) {
		t.Fatalf("cached cross-form responses differ:\n%s\n%s", first, second)
	}
	s := getStats(t, ts.URL)
	if s.Cache.Entries != 1 || s.Cache.Hits != 1 || s.Cache.Misses != 1 {
		t.Fatalf("cache stats after cross-form pair: %+v", s.Cache)
	}
}

func TestAnonymizeRefMatchesInline(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)
	req := func(ref bool) api.AnonymizeRequest {
		r := api.AnonymizeRequest{L: 1, Theta: 0.5, Method: "rem", Seed: 3, Cache: "off"}
		if ref {
			r.GraphRef = id
		} else {
			r.Graph = fig
		}
		return r
	}
	inline := readBody(t, postJSON(t, ts.URL+"/v1/anonymize", req(false)))
	viaRef := readBody(t, postJSON(t, ts.URL+"/v1/anonymize", req(true)))
	if !bytes.Equal(inline, viaRef) {
		t.Fatalf("inline and ref anonymize differ:\n%s\n%s", inline, viaRef)
	}
}

// TestOpacityRefReusesStore is the acceptance criterion: the second
// ref request for the same (graph, L, engine, store) performs zero
// APSP builds — visible as a store hit on /v1/stats.
func TestOpacityRefReusesStore(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	id := registerGraph(t, ts.URL, figure1())

	post := func() {
		resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2, Cache: "off"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
		}
	}
	post()
	s := getStats(t, ts.URL)
	if s.Registry.StoreMisses != 1 || s.Registry.StoreHits != 0 || s.Registry.Stores != 1 {
		t.Fatalf("registry stats after first ref request: %+v", s.Registry)
	}
	post()
	s = getStats(t, ts.URL)
	if s.Registry.StoreMisses != 1 || s.Registry.StoreHits != 1 {
		t.Fatalf("registry stats after second ref request (want a pure store hit): %+v", s.Registry)
	}
	// A different L is a different store: miss, then reuse again.
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 3, Cache: "off"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("L=3 status %d", resp.StatusCode)
	}
	s = getStats(t, ts.URL)
	if s.Registry.StoreMisses != 2 || s.Registry.Stores != 2 {
		t.Fatalf("registry stats after L=3: %+v", s.Registry)
	}
}

func TestGraphRefErrors(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	// Unknown ref is a 404, on the sync path...
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: "deadbeef", L: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref: status %d, want 404", resp.StatusCode)
	}
	// ...and on the async submit path (validated synchronously).
	raw, _ := json.Marshal(api.OpacityRequest{GraphRef: "deadbeef", L: 1})
	resp = postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Op: "opacity", Request: raw})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref via jobs: status %d, want 404", resp.StatusCode)
	}
	// Both forms at once is a 400.
	id := registerGraph(t, ts.URL, figure1())
	resp = postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: figure1(), GraphRef: id, L: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both forms: status %d, want 400", resp.StatusCode)
	}
}

// TestJobsWithGraphRef exercises the async form: a job submitted with a
// graph_ref produces the same result document the inline sync endpoint
// returns, and the two share one cache entry.
func TestJobsWithGraphRef(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)

	_, jr := submitJob(t, ts.URL, "opacity", api.OpacityRequest{GraphRef: id, L: 2})
	done := awaitJob(t, ts.URL, jr.ID, "done")

	inline := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: fig, L: 2}))
	if !bytes.Equal(bytes.TrimSpace(done.Result), bytes.TrimSpace(inline)) {
		t.Fatalf("async ref result differs from sync inline:\n%s\n%s", done.Result, inline)
	}
	s := getStats(t, ts.URL)
	if s.Cache.Entries != 1 {
		t.Fatalf("cross-path cache entries=%d, want 1", s.Cache.Entries)
	}
}

func TestAuditAndReplayAcceptRefs(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)

	inline := readBody(t, postJSON(t, ts.URL+"/v1/audit", api.AuditRequest{
		Published: fig, Original: fig, L: 1, Theta: 0.5,
	}))
	viaRef := readBody(t, postJSON(t, ts.URL+"/v1/audit", api.AuditRequest{
		PublishedRef: id, OriginalRef: id, L: 1, Theta: 0.5,
	}))
	if !bytes.Equal(inline, viaRef) {
		t.Fatalf("audit inline vs ref differ:\n%s\n%s", inline, viaRef)
	}

	steps, published := anonymizeWithTrace(t, fig, 0.5)
	pubID := registerGraph(t, ts.URL, published)
	repInline := readBody(t, postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{
		Original: fig, Trace: steps, L: 1, Theta: 0.5, Published: &published,
	}))
	repRef := readBody(t, postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{
		OriginalRef: id, Trace: steps, L: 1, Theta: 0.5, PublishedRef: pubID,
	}))
	if !bytes.Equal(repInline, repRef) {
		t.Fatalf("replay inline vs ref differ:\n%s\n%s", repInline, repRef)
	}
}

func TestPropertiesAndKIsoAcceptRefs(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)
	inline := readBody(t, postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{Graph: fig}))
	viaRef := readBody(t, postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{GraphRef: id}))
	if !bytes.Equal(inline, viaRef) {
		t.Fatalf("properties inline vs ref differ:\n%s\n%s", inline, viaRef)
	}
	ki := readBody(t, postJSON(t, ts.URL+"/v1/kiso", api.KIsoRequest{Graph: fig, K: 2, Seed: 1}))
	kr := readBody(t, postJSON(t, ts.URL+"/v1/kiso", api.KIsoRequest{GraphRef: id, K: 2, Seed: 1}))
	if !bytes.Equal(ki, kr) {
		t.Fatalf("kiso inline vs ref differ:\n%s\n%s", ki, kr)
	}
}

func TestRegistryEvictionOverHTTP(t *testing.T) {
	_, ts := newTestAPI(t, Config{GraphCapacity: 1})
	first := registerGraph(t, ts.URL, api.Graph{N: 3, Edges: [][2]int{{0, 1}}})
	second := registerGraph(t, ts.URL, api.Graph{N: 3, Edges: [][2]int{{1, 2}}})

	resp, err := http.Get(ts.URL + "/v1/graphs/" + first)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted graph still served: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/graphs/" + second)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident graph: status %d", resp.StatusCode)
	}
	s := getStats(t, ts.URL)
	if s.Registry.Evictions != 1 || s.Registry.Graphs != 1 || s.Registry.Capacity != 1 {
		t.Fatalf("registry stats: %+v", s.Registry)
	}
}

func TestRegisterDatasetPreloadPath(t *testing.T) {
	srv, ts := newTestAPI(t, Config{})
	id, err := srv.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preloaded graph not served: status %d", resp.StatusCode)
	}
	if _, err := srv.RegisterDataset("no-such-dataset", 1); err == nil {
		t.Fatal("unknown dataset key not rejected")
	}

	// Preload obeys the same vertex bound POST /v1/graphs enforces.
	small, _ := newTestAPI(t, Config{MaxVertices: 10})
	if _, err := small.RegisterDataset("gnutella100", 1); err == nil {
		t.Fatal("preload registered a graph over -max-vertices")
	}
}

// benchServer builds a server with a registered calibrated dataset for
// the inline-vs-ref benchmark pair.
func benchServer(b *testing.B) (*Server, api.Graph, string) {
	b.Helper()
	srv := New(Config{})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	g, err := lopacity.Dataset("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	gj := api.Graph{N: g.N(), Edges: g.Edges()}
	id, err := srv.RegisterDataset("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	return srv, gj, id
}

func benchPost(b *testing.B, srv *Server, path string, body []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkOpacityInline measures the stateless path: every request
// re-parses the 500-vertex edge list and rebuilds the APSP store.
// Compare with BenchmarkOpacityRef, which pays neither cost after the
// first request. The result cache is off in both, as it would be on
// any workload without exact request repeats.
func BenchmarkOpacityInline(b *testing.B) {
	srv, gj, _ := benchServer(b)
	body, err := json.Marshal(api.OpacityRequest{Graph: gj, L: 3, Cache: "off"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, srv, "/v1/opacity", body)
	}
}

// BenchmarkOpacityRef measures the registry path: requests name the
// graph by content address and reuse its cached distance store.
func BenchmarkOpacityRef(b *testing.B) {
	srv, _, id := benchServer(b)
	body := []byte(fmt.Sprintf(`{"graph_ref":%q,"l":3,"cache":"off"}`, id))
	benchPost(b, srv, "/v1/opacity", body) // warm the store cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, srv, "/v1/opacity", body)
	}
}

// BenchmarkAnonymizeInline / BenchmarkAnonymizeRef mirror the opacity
// pair for the anonymize path. Theta is 1 so the greedy loop commits
// zero moves: the pair isolates exactly the per-request setup cost the
// registry eliminates — JSON re-parse plus the L=3 APSP build inline,
// versus a flat clone of the cached store on the ref path. (Greedy
// iterations cost the same on both paths, so including them would only
// dilute the comparison.)
func BenchmarkAnonymizeInline(b *testing.B) {
	srv, gj, _ := benchServer(b)
	body, err := json.Marshal(api.AnonymizeRequest{Graph: gj, L: 3, Theta: 1, Cache: "off"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, srv, "/v1/anonymize", body)
	}
}

// BenchmarkAnonymizeRef measures the registry path: the run clones the
// cached distance store instead of rebuilding it.
func BenchmarkAnonymizeRef(b *testing.B) {
	srv, _, id := benchServer(b)
	body := []byte(fmt.Sprintf(`{"graph_ref":%q,"l":3,"theta":1,"cache":"off"}`, id))
	benchPost(b, srv, "/v1/anonymize", body) // warm the store cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, srv, "/v1/anonymize", body)
	}
}
