package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	lopacity "repro"
	"repro/api"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// figure1 is the paper's running-example graph (vertices renumbered 0-6).
func figure1() api.Graph {
	return api.Graph{N: 7, Edges: [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 4}, {4, 5}, {5, 6},
	}}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// decodeError decodes an error body and asserts the envelope
// invariant: the legacy top-level "error" string and the structured
// "error_detail" object are both present, agree on the message, and
// carry a machine-readable code.
func decodeError(t *testing.T, resp *http.Response) api.ErrorResponse {
	t.Helper()
	body := decodeBody[api.ErrorResponse](t, resp)
	if body.Message == "" {
		t.Fatal("legacy \"error\" string field missing")
	}
	if body.Err == nil {
		t.Fatal("structured \"error_detail\" envelope missing")
	}
	if body.Err.Message != body.Message {
		t.Fatalf("envelope message %q != legacy message %q", body.Err.Message, body.Message)
	}
	if body.Err.Code == "" {
		t.Fatal("error code missing from envelope")
	}
	return body
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decodeBody[map[string]string](t, resp)
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestPostOnlyEndpointsRejectGet(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/properties", "/v1/opacity", "/v1/anonymize", "/v1/kiso", "/v1/audit"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s: Allow=%q, want POST", path, allow)
		}
	}
}

func TestProperties(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{Graph: figure1()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	p := decodeBody[api.PropertiesResponse](t, resp)
	if p.Nodes != 7 || p.Links != 10 {
		t.Fatalf("nodes=%d links=%d, want 7/10", p.Nodes, p.Links)
	}
	if p.Diameter != 3 {
		t.Fatalf("diameter=%d, want 3 (paper Figure 4a)", p.Diameter)
	}
}

func TestOpacityMatchesLibrary(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: figure1(), L: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rep := decodeBody[api.OpacityResponse](t, resp)
	// The paper's Figure 5c: the running example has maximum opacity 1
	// at L=1 (type {1,2}).
	if rep.MaxOpacity != 1 {
		t.Fatalf("max_opacity=%v, want 1", rep.MaxOpacity)
	}
	g := lopacity.FromEdges(7, figure1().Edges)
	want := g.Opacity(1)
	if len(rep.Types) != len(want.Types) {
		t.Fatalf("%d types, library reports %d", len(rep.Types), len(want.Types))
	}
}

func TestOpacityRejectsBadL(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: figure1(), L: 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestAnonymizeRemThenAuditPasses(t *testing.T) {
	ts := newTestServer(t, Config{})
	fig := figure1()
	resp := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
		Graph: fig, L: 1, Theta: 0.5, Method: "rem", Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	anon := decodeBody[api.AnonymizeResponse](t, resp)
	if !anon.Satisfied {
		t.Fatalf("anonymization unsatisfied: %+v", anon)
	}
	if anon.MaxOpacity > 0.5 {
		t.Fatalf("max_opacity %v > 0.5", anon.MaxOpacity)
	}
	if anon.Distortion <= 0 {
		t.Fatal("distortion should be positive on the running example")
	}

	// The service's own audit endpoint must agree that the published
	// graph passes at theta=0.5.
	auditResp := postJSON(t, ts.URL+"/v1/audit", api.AuditRequest{
		Published: anon.Graph, Original: fig, L: 1, Theta: 0.5,
	})
	if auditResp.StatusCode != http.StatusOK {
		t.Fatalf("audit status %d", auditResp.StatusCode)
	}
	audit := decodeBody[api.AuditResponse](t, auditResp)
	if !audit.Passed {
		t.Fatalf("audit failed: %+v", audit)
	}
	if len(audit.Vulnerable) != 0 {
		t.Fatalf("vulnerable types on a passing graph: %+v", audit.Vulnerable)
	}
}

func TestAuditFlagsRawGraph(t *testing.T) {
	ts := newTestServer(t, Config{})
	fig := figure1()
	resp := postJSON(t, ts.URL+"/v1/audit", api.AuditRequest{
		Published: fig, Original: fig, L: 1, Theta: 0.5,
	})
	audit := decodeBody[api.AuditResponse](t, resp)
	if audit.Passed {
		t.Fatal("raw Figure 1 graph passed an L=1 theta=0.5 audit; it must fail")
	}
	if audit.MaxConfidence != 1 {
		t.Fatalf("max_confidence=%v, want 1", audit.MaxConfidence)
	}
	if len(audit.Vulnerable) == 0 {
		t.Fatal("no vulnerable types reported for a failing graph")
	}
}

func TestAnonymizeMethods(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, method := range []string{"rem", "rem-ins", "gaded-max", "anneal"} {
		resp := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
			Graph: figure1(), L: 1, Theta: 0.6, Method: method, Seed: 2,
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("method %q: status %d", method, resp.StatusCode)
			continue
		}
		anon := decodeBody[api.AnonymizeResponse](t, resp)
		if anon.Graph.N == 0 {
			t.Errorf("method %q: empty graph returned", method)
		}
	}
}

func TestAnonymizeRejectsUnknownMethodAndBadTheta(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
		Graph: figure1(), L: 1, Theta: 0.5, Method: "quantum",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
		Graph: figure1(), L: 1, Theta: 1.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("theta=1.5: status %d, want 400", resp.StatusCode)
	}
}

func TestKIsoEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/kiso", api.KIsoRequest{Graph: figure1(), K: 2, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res := decodeBody[api.KIsoResponse](t, resp)
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks=%d, want 2", len(res.Blocks))
	}
	if res.Graph.N != 8 { // 7 padded up to 2*4
		t.Fatalf("n=%d, want 8", res.Graph.N)
	}
	if res.Distortion <= 0 {
		t.Fatal("k-iso on a connected graph must cost edits")
	}
}

func TestGraphValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		graph api.Graph
	}{
		{"zero n", api.Graph{N: 0}},
		{"negative n", api.Graph{N: -3}},
		{"edge out of range", api.Graph{N: 3, Edges: [][2]int{{0, 5}}}},
		{"negative endpoint", api.Graph{N: 3, Edges: [][2]int{{-1, 1}}}},
		{"self-loop", api.Graph{N: 3, Edges: [][2]int{{1, 1}}}},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{Graph: c.graph})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// TestDuplicateEdgesRejected is the regression test for the silent
// duplicate-edge acceptance bug: toGraph used to drop AddEdge's false
// return, so [[0,1],[1,0]] built the same graph as [[0,1]] while
// hashing to a different cache key.
func TestDuplicateEdgesRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		graph api.Graph
	}{
		{"exact duplicate", api.Graph{N: 3, Edges: [][2]int{{0, 1}, {0, 1}}}},
		{"reversed duplicate", api.Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}}},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{Graph: c.graph})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
			continue
		}
		body := decodeError(t, resp)
		if !strings.Contains(body.Message, "duplicate") {
			t.Errorf("%s: error %q does not name the duplicate", c.name, body.Message)
		}
		if body.Err.Code != api.CodeInvalidEdge {
			t.Errorf("%s: code %q, want %q", c.name, body.Err.Code, api.CodeInvalidEdge)
		}
	}
}

// TestTrailingDataRejected is the regression test for the
// request-decoding bug: a multi-document body like
// `{"l":2}{"garbage":true}` used to parse as a valid request, with
// everything after the first document silently ignored.
func TestTrailingDataRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	valid := `{"graph":{"n":3,"edges":[[0,1],[1,2]]},"l":2}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"single document", valid, http.StatusOK},
		{"trailing whitespace", valid + "\n\t ", http.StatusOK},
		{"second document", valid + `{"garbage":true}`, http.StatusBadRequest},
		{"trailing token", valid + ` 42`, http.StatusBadRequest},
		{"trailing garbage", valid + `xyz`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/opacity", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

func TestVertexLimitEnforced(t *testing.T) {
	ts := newTestServer(t, Config{MaxVertices: 10})
	resp := postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{Graph: api.Graph{N: 11}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestBodySizeLimitEnforced(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := api.Graph{N: 100}
	for i := 1; i < 100; i++ {
		big.Edges = append(big.Edges, [2]int{0, i})
	}
	resp := postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{Graph: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestUnknownFieldsRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/opacity", "application/json",
		strings.NewReader(`{"graph":{"n":3,"edges":[]},"l":1,"thtea":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for misspelled field", resp.StatusCode)
	}
	body := decodeError(t, resp)
	if body.Err.Code != api.CodeInvalidRequest {
		t.Fatalf("code %q, want %q", body.Err.Code, api.CodeInvalidRequest)
	}
}

func TestMalformedJSON(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/anonymize", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestBudgetClampedToServerMax(t *testing.T) {
	// A 50ms server cap with an absurd client budget must still return
	// promptly (timed_out on a hard instance).
	ts := newTestServer(t, Config{MaxBudget: 50_000_000}) // 50ms in ns
	g := api.Graph{N: 60}
	// Dense-ish graph that cannot be opacified to theta=0.01 instantly.
	for i := 0; i < 60; i++ {
		for j := i + 1; j < i+5 && j < 60; j++ {
			g.Edges = append(g.Edges, [2]int{i, j})
		}
	}
	resp := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
		Graph: g, L: 2, Theta: 0.01, Method: "rem", BudgetMS: 1 << 40,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	anon := decodeBody[api.AnonymizeResponse](t, resp)
	if !anon.TimedOut && !anon.Satisfied {
		t.Fatal("run neither timed out nor satisfied")
	}
}

func TestDatasetsListAndFetch(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	list := decodeBody[map[string][]string](t, resp)
	if len(list["datasets"]) == 0 {
		t.Fatal("no datasets listed")
	}

	fetch := postJSON(t, ts.URL+"/v1/dataset", api.DatasetRequest{Key: "gnutella100", Seed: 1})
	if fetch.StatusCode != http.StatusOK {
		t.Fatalf("fetch status %d", fetch.StatusCode)
	}
	ds := decodeBody[api.DatasetResponse](t, fetch)
	if ds.Properties.Nodes != 100 {
		t.Fatalf("nodes=%d, want 100", ds.Properties.Nodes)
	}
	if len(ds.Graph.Edges) != ds.Properties.Links {
		t.Fatalf("edges=%d, properties say %d", len(ds.Graph.Edges), ds.Properties.Links)
	}
}

func TestDatasetDeterministicAcrossRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := decodeBody[api.DatasetResponse](t, postJSON(t, ts.URL+"/v1/dataset", api.DatasetRequest{Key: "enron100", Seed: 7}))
	b := decodeBody[api.DatasetResponse](t, postJSON(t, ts.URL+"/v1/dataset", api.DatasetRequest{Key: "enron100", Seed: 7}))
	if len(a.Graph.Edges) != len(b.Graph.Edges) {
		t.Fatal("same seed returned different graphs")
	}
	for i := range a.Graph.Edges {
		if a.Graph.Edges[i] != b.Graph.Edges[i] {
			t.Fatal("same seed returned different edge lists")
		}
	}
}

func TestDatasetUnknownKey(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/dataset", api.DatasetRequest{Key: "no-such-dataset"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestDatasetsRejectsPost(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/datasets", struct{}{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

// TestWireTraceStepMatchesLibrary guards the field-compatibility the
// api package promises: the wire TraceStep must round-trip the
// library's trace lines exactly, with no unknown or missing fields.
func TestWireTraceStepMatchesLibrary(t *testing.T) {
	in := lopacity.TraceStep{Step: 3, Op: "insert", Edges: [][2]int{{1, 2}, {4, 5}}, MaxOpacity: 0.25, Population: 4}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var wire api.TraceStep
	if err := dec.Decode(&wire); err != nil {
		t.Fatalf("library trace line does not decode into api.TraceStep: %v", err)
	}
	back, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, back) {
		t.Fatalf("round trip changed bytes:\n lib  %s\n wire %s", b, back)
	}
}

// TestRegisterBadNMatchesInlineClassification: POST /v1/graphs and the
// inline operation path must classify n<=0 identically — as
// invalid_request, never invalid_edge.
func TestRegisterBadNMatchesInlineClassification(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/graphs", api.GraphRegisterRequest{Graph: &api.Graph{N: 0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body := decodeError(t, resp)
	if body.Err.Code != api.CodeInvalidRequest {
		t.Fatalf("code %q, want %q", body.Err.Code, api.CodeInvalidRequest)
	}
}

// anonymizeWithTrace produces a (trace, published) pair via the library
// for the replay endpoint tests.
func anonymizeWithTrace(t *testing.T, fig api.Graph, theta float64) ([]api.TraceStep, api.Graph) {
	t.Helper()
	g := lopacity.FromEdges(fig.N, fig.Edges)
	var buf bytes.Buffer
	res, err := lopacity.Anonymize(g, lopacity.Options{L: 1, Theta: theta, Seed: 1, TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("fixture unsatisfied at theta=%v", theta)
	}
	// The wire TraceStep is field-compatible with the library's trace
	// lines, so the JSONL audit log decodes straight into it.
	var steps []api.TraceStep
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var s api.TraceStep
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, s)
	}
	return steps, api.Graph{N: res.Graph.N(), Edges: res.Graph.Edges()}
}

func TestReplayEndpointVerifiesHonestTrace(t *testing.T) {
	ts := newTestServer(t, Config{})
	fig := figure1()
	steps, published := anonymizeWithTrace(t, fig, 0.5)
	resp := postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{
		Original: fig, Trace: steps, L: 1, Theta: 0.5, Published: &published,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rep := decodeBody[api.ReplayResponse](t, resp)
	if !rep.Verified {
		t.Fatalf("honest trace rejected: %+v", rep)
	}
	if rep.Steps != len(steps) {
		t.Fatalf("steps=%d, want %d", rep.Steps, len(steps))
	}
}

func TestReplayEndpointRejectsTamperedTrace(t *testing.T) {
	ts := newTestServer(t, Config{})
	fig := figure1()
	steps, published := anonymizeWithTrace(t, fig, 0.5)
	steps[0].MaxOpacity = 0.123456 // forge the recorded opacity
	resp := postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{
		Original: fig, Trace: steps, L: 1, Theta: 0.5, Published: &published,
	})
	rep := decodeBody[api.ReplayResponse](t, resp)
	if rep.Verified {
		t.Fatal("tampered trace verified")
	}
	if rep.Error == "" {
		t.Fatal("violation not reported")
	}
}

func TestReplayEndpointRejectsWrongPublished(t *testing.T) {
	ts := newTestServer(t, Config{})
	fig := figure1()
	steps, _ := anonymizeWithTrace(t, fig, 0.5)
	wrong := figure1() // claim the ORIGINAL is the published graph
	resp := postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{
		Original: fig, Trace: steps, L: 1, Theta: 0.5, Published: &wrong, Fast: true,
	})
	rep := decodeBody[api.ReplayResponse](t, resp)
	if rep.Verified {
		t.Fatal("wrong published graph verified")
	}
}
