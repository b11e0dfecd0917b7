// Tests for the persistence layer's HTTP surface (warm restart, stats)
// and for the cancellation and validation bugfixes that ride with it.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	lopacity "repro"

	"repro/api"
	"repro/internal/apsp"
)

// TestLBoundaryValidation pins the validation domain of the
// l-taking operations at the boundaries: opacity requires l >= 1,
// anonymize accepts l >= 0 with l:0 normalized to the library default
// of 1, and every one of them refuses an l above apsp.MaxL, whose
// sentinel l+1 no store cell can hold — and each rejection names the
// domain it enforces.
func TestLBoundaryValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	const tooBig, tooBigErr = apsp.MaxL + 1, "l must be <= 2147483646"
	cases := []struct {
		op         string
		body       any
		wantStatus int
		wantErr    string
	}{
		{"opacity", api.OpacityRequest{Graph: figure1(), L: -1}, http.StatusBadRequest, "l must be >= 1"},
		{"opacity", api.OpacityRequest{Graph: figure1(), L: 0}, http.StatusBadRequest, "l must be >= 1"},
		{"opacity", api.OpacityRequest{Graph: figure1(), L: 1}, http.StatusOK, ""},
		{"anonymize", api.AnonymizeRequest{Graph: figure1(), L: -1, Theta: 0.5}, http.StatusBadRequest, "l must be >= 0 (l:0 selects the default 1)"},
		{"anonymize", api.AnonymizeRequest{Graph: figure1(), L: 0, Theta: 0.5}, http.StatusOK, ""},
		{"anonymize", api.AnonymizeRequest{Graph: figure1(), L: 1, Theta: 0.5}, http.StatusOK, ""},
		{"opacity", api.OpacityRequest{Graph: figure1(), L: tooBig}, http.StatusBadRequest, tooBigErr},
		{"opacity", api.OpacityRequest{Graph: figure1(), L: apsp.MaxL}, http.StatusOK, ""},
		{"anonymize", api.AnonymizeRequest{Graph: figure1(), L: tooBig, Theta: 0.5}, http.StatusBadRequest, tooBigErr},
		{"audit", api.AuditRequest{Published: figure1(), Original: figure1(), L: tooBig, Theta: 0.5}, http.StatusBadRequest, tooBigErr},
		{"replay", api.ReplayRequest{Original: figure1(), L: tooBig, Theta: 0.5}, http.StatusBadRequest, tooBigErr},
		{"continuous_audit", api.ContinuousAuditRequest{Graph: figure1(), L: tooBig, Theta: 0.5, Steps: []api.MutationStep{{Remove: [][2]int{{0, 1}}}}}, http.StatusBadRequest, tooBigErr},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/"+tc.op, tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.op, resp.StatusCode, tc.wantStatus)
			continue
		}
		if tc.wantErr != "" {
			body := decodeError(t, resp)
			if !strings.Contains(body.Message, tc.wantErr) {
				t.Errorf("%s: error %q does not mention %q", tc.op, body.Message, tc.wantErr)
			}
		}
	}
}

// TestOpacityLargestL: at l = apsp.MaxL the store's sentinel still
// fits its cells, so isolated vertices stay beyond reach: the pair of
// degree-0 vertices of a 4-vertex graph with one edge is within l in 0
// of its 1 instances.
func TestOpacityLargestL(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: api.Graph{N: 4, Edges: [][2]int{{0, 1}}}, L: apsp.MaxL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got api.OpacityResponse
	if err := json.Unmarshal(readBody(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	want := []api.OpacityType{
		{Label: "P{0,0}", Within: 0, Total: 1, Opacity: 0},
		{Label: "P{0,1}", Within: 0, Total: 4, Opacity: 0},
		{Label: "P{1,1}", Within: 1, Total: 1, Opacity: 1},
	}
	if !slices.Equal(got.Types, want) {
		t.Fatalf("types %+v, want %+v", got.Types, want)
	}
}

// TestAnonymizeLZeroNormalized: l:0 and l:1 are the same request — the
// normalization gives them one cache key, so the second spelling is a
// byte-identical cache hit of the first.
func TestAnonymizeLZeroNormalized(t *testing.T) {
	ts := newTestServer(t, Config{})
	respDefault := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{Graph: figure1(), L: 0, Theta: 0.5, Seed: 3})
	respOne := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{Graph: figure1(), L: 1, Theta: 0.5, Seed: 3})
	if respDefault.StatusCode != http.StatusOK || respOne.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", respDefault.StatusCode, respOne.StatusCode)
	}
	a, b := readBody(t, respDefault), readBody(t, respOne)
	if string(a) != string(b) {
		t.Fatalf("l:0 and l:1 responses differ:\n%s\n%s", a, b)
	}
}

// TestWarmRestartZeroBuilds is the acceptance test for persistence: a
// second server over the same -data-dir answers its first graph_ref
// opacity, anonymize, AND audit requests with zero APSP builds (store
// hits only), byte-identical to the cold server's answers.
func TestWarmRestartZeroBuilds(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}

	cold := New(cfg)
	id, err := cold.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	opacityReq := []byte(fmt.Sprintf(`{"graph_ref":%q,"l":3,"cache":"off"}`, id))
	anonReq := []byte(fmt.Sprintf(`{"graph_ref":%q,"l":3,"theta":1,"cache":"off"}`, id))
	auditReq := []byte(fmt.Sprintf(`{"published_ref":%q,"original_ref":%q,"l":3,"theta":0.9}`, id, id))
	coldOpacity := postRaw(t, cold, "/v1/opacity", opacityReq)
	coldAnon := postRaw(t, cold, "/v1/anonymize", anonReq)
	coldAudit := postRaw(t, cold, "/v1/audit", auditReq)
	closeServer(t, cold)

	warm := New(cfg)
	defer closeServer(t, warm)
	warmOpacity := postRaw(t, warm, "/v1/opacity", opacityReq)
	warmAnon := postRaw(t, warm, "/v1/anonymize", anonReq)
	warmAudit := postRaw(t, warm, "/v1/audit", auditReq)
	if warmOpacity != coldOpacity {
		t.Error("opacity answer changed across restart")
	}
	if warmAnon != coldAnon {
		t.Error("anonymize answer changed across restart")
	}
	if warmAudit != coldAudit {
		t.Error("audit answer changed across restart")
	}

	stats := getStatsAPI(t, warm)
	if stats.Registry.StoreMisses != 0 {
		t.Errorf("warm server built %d stores, want 0", stats.Registry.StoreMisses)
	}
	if stats.Registry.StoreHits < 3 {
		t.Errorf("warm server reports %d store hits, want >= 3", stats.Registry.StoreHits)
	}
	p := stats.Persistence
	if !p.Enabled || p.Dir != dir || p.GraphsLoaded != 1 || p.StoresLoaded < 1 || p.Quarantined != 0 {
		t.Errorf("persistence stats %+v, want enabled with the snapshot recovered", p)
	}
}

// TestAuditColdRegistryDoesNotBuild: a published_ref audit against a
// graph with no cached store must leave the registry as it was — the
// adversary builds its census store privately, so no registry store is
// built or cached and the store budget stays free for the graphs'
// opacity and anonymize traffic — and must answer byte-identically to
// the same audit over a store cached afterwards.
func TestAuditColdRegistryDoesNotBuild(t *testing.T) {
	srv, _ := newTestAPI(t, Config{})
	id, err := srv.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"published_ref":%q,"original_ref":%q,"l":2,"theta":0.9}`, id, id))
	cold := postRaw(t, srv, "/v1/audit", body)
	if s := getStatsAPI(t, srv).Registry; s.StoreMisses != 0 || s.Stores != 0 {
		t.Fatalf("cold audit built a store: %+v", s)
	}
	// Warm the store via opacity, then the same audit must answer
	// identically from the store path.
	postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2}`, id)))
	warm := postRaw(t, srv, "/v1/audit", body)
	if cold != warm {
		t.Fatalf("store-backed audit differs from BFS audit:\n%s\n%s", cold, warm)
	}
	if s := getStatsAPI(t, srv).Registry; s.StoreMisses != 1 || s.StoreHits < 1 {
		t.Fatalf("warm audit did not hit the cached store: %+v", s)
	}
}

// TestPersistenceDisabledByDefault: without -data-dir the stats
// section reports disabled and nothing touches disk.
func TestPersistenceDisabledByDefault(t *testing.T) {
	srv, _ := newTestAPI(t, Config{})
	if p := getStatsAPI(t, srv).Persistence; p.Enabled || p.Dir != "" {
		t.Errorf("persistence reported enabled without DataDir: %+v", p)
	}
}

// TestJobCancelStopsComputation is the end-to-end regression test for
// the headline bugfix: DELETE /v1/jobs/{id} on a running anonymize job
// must stop the computation goroutine itself (the jobs.detached gauge
// drains to zero within the cancellation-poll interval), not merely
// free the worker slot while the greedy loop burns its whole budget.
func TestJobCancelStopsComputation(t *testing.T) {
	srv, ts := newTestAPI(t, Config{Workers: 1})
	g, err := lopacity.Dataset("gnutella500", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unreachably low theta and a budget far beyond the test deadline:
	// only cancellation can stop this run early.
	req, err := json.Marshal(api.AnonymizeRequest{
		Graph: api.Graph{N: g.N(), Edges: g.Edges()},
		L:     3, Theta: 0.001, BudgetMS: 25000, Cache: "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.JobSubmitRequest{Op: "anonymize", Request: req})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	job := decodeBody[api.JobResponse](t, resp)
	awaitJob(t, ts.URL, job.ID, "running")

	if del := deleteJob(t, ts.URL+"/v1/jobs/"+job.ID); del.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", del.StatusCode)
	}
	// The computation must exit within the poll interval (one greedy
	// iteration), far sooner than its 25 s budget.
	deadline := time.Now().Add(8 * time.Second)
	for {
		js := srv.jobs.Stats()
		if js.Running == 0 && js.Detached == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("computation still running %v after cancel (running=%d detached=%d)",
				8*time.Second, js.Running, js.Detached)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// postRaw executes a POST against the in-process server and returns
// the body, failing the test on any non-200.
func postRaw(t *testing.T, srv *Server, path string, body []byte) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// getStats fetches and decodes GET /v1/stats from the in-process
// server.
func getStatsAPI(t *testing.T, srv *Server) api.StatsResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", rec.Code)
	}
	var out api.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func closeServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
