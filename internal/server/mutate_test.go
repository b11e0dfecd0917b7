package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/api"
)

// patchGraph PATCHes /v1/graphs/{id} and returns the raw response.
func patchGraph(t *testing.T, baseURL, id string, req api.GraphPatchRequest) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPatch, baseURL+"/v1/graphs/"+id, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestGraphPatchRoundTrip(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	parent := registerGraph(t, ts.URL, fig)

	// Patch: add {0,6} (spelled reversed, to exercise normalization) and
	// remove {3,4}.
	resp := patchGraph(t, ts.URL, parent, api.GraphPatchRequest{
		Add: [][2]int{{6, 0}}, Remove: [][2]int{{3, 4}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("patch: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	pr := decodeBody[api.GraphPatchResponse](t, resp)
	if !pr.Created || pr.N != 7 || pr.M != 10 {
		t.Fatalf("patch response: %+v", pr)
	}
	if resp.Header.Get("Location") != "/v1/graphs/"+pr.ID {
		t.Fatalf("Location=%q", resp.Header.Get("Location"))
	}
	if pr.Lineage == nil || pr.Lineage.Parent != parent {
		t.Fatalf("lineage not echoed: %+v", pr.Lineage)
	}
	if len(pr.Lineage.Added) != 1 || pr.Lineage.Added[0] != [2]int{0, 6} {
		t.Fatalf("lineage added %v, want canonical [[0 6]]", pr.Lineage.Added)
	}
	if len(pr.Lineage.Removed) != 1 || pr.Lineage.Removed[0] != [2]int{3, 4} {
		t.Fatalf("lineage removed %v, want [[3 4]]", pr.Lineage.Removed)
	}

	// The child's id is its content address: registering the full child
	// edge list dedupes to the id the patch minted.
	childEdges := [][2]int{{0, 6}}
	for _, e := range fig.Edges {
		if e != [2]int{3, 4} {
			childEdges = append(childEdges, e)
		}
	}
	if got := registerGraph(t, ts.URL, api.Graph{N: 7, Edges: childEdges}); got != pr.ID {
		t.Fatalf("full-upload child id %s, patch minted %s", got, pr.ID)
	}

	// Repeating the identical patch finds the existing child: 200, not 201.
	resp = patchGraph(t, ts.URL, parent, api.GraphPatchRequest{
		Add: [][2]int{{0, 6}}, Remove: [][2]int{{4, 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-patch: status %d", resp.StatusCode)
	}
	if again := decodeBody[api.GraphPatchResponse](t, resp); again.Created || again.ID != pr.ID {
		t.Fatalf("re-patch response: %+v", again)
	}

	// GET on the child carries the lineage section; the parent has none.
	info := decodeBody[api.GraphInfo](t, getOK(t, ts.URL+"/v1/graphs/"+pr.ID))
	if info.Lineage == nil || info.Lineage.Parent != parent {
		t.Fatalf("child GET lineage: %+v", info.Lineage)
	}
	if p := decodeBody[api.GraphInfo](t, getOK(t, ts.URL+"/v1/graphs/"+parent)); p.Lineage != nil {
		t.Fatalf("parent GET grew a lineage: %+v", p.Lineage)
	}

	// Deleting the parent does not cascade: the child stays servable,
	// lineage intact (now provenance only).
	if del := deleteJob(t, ts.URL+"/v1/graphs/"+parent); del.StatusCode != http.StatusOK {
		t.Fatalf("delete parent: status %d", del.StatusCode)
	}
	info = decodeBody[api.GraphInfo](t, getOK(t, ts.URL+"/v1/graphs/"+pr.ID))
	if info.Lineage == nil || info.Lineage.Parent != parent {
		t.Fatalf("child lineage after parent delete: %+v", info.Lineage)
	}
}

// getOK GETs a URL and requires a 200.
func getOK(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}

func TestGraphPatchErrors(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	parent := registerGraph(t, ts.URL, figure1())

	for name, tc := range map[string]struct {
		id     string
		req    api.GraphPatchRequest
		status int
	}{
		"unknown id":     {"deadbeef", api.GraphPatchRequest{Add: [][2]int{{0, 6}}}, http.StatusNotFound},
		"empty patch":    {parent, api.GraphPatchRequest{}, http.StatusBadRequest},
		"add present":    {parent, api.GraphPatchRequest{Add: [][2]int{{0, 1}}}, http.StatusBadRequest},
		"remove absent":  {parent, api.GraphPatchRequest{Remove: [][2]int{{0, 6}}}, http.StatusBadRequest},
		"self-loop":      {parent, api.GraphPatchRequest{Add: [][2]int{{2, 2}}}, http.StatusBadRequest},
		"out of range":   {parent, api.GraphPatchRequest{Add: [][2]int{{0, 7}}}, http.StatusBadRequest},
		"add and remove": {parent, api.GraphPatchRequest{Add: [][2]int{{0, 6}}, Remove: [][2]int{{0, 6}}}, http.StatusBadRequest},
	} {
		resp := patchGraph(t, ts.URL, tc.id, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.status, readBody(t, resp))
		}
		// Diff-content rejections carry the machine-readable edge code;
		// the empty patch is a plain request-shape 400.
		if tc.status == http.StatusBadRequest && name != "empty patch" {
			if body := decodeError(t, resp); body.Err.Code != api.CodeInvalidEdge {
				t.Errorf("%s: code %q, want %q", name, body.Err.Code, api.CodeInvalidEdge)
			}
		}
	}
}

// TestGraphPatchZeroBuilds is the acceptance criterion: with the
// parent's distance store warm, an opacity request against the PATCHed
// child performs zero APSP builds — its store hydrates by repairing
// the parent's, visible as repairs=1 (and no new builds) on /v1/stats.
func TestGraphPatchZeroBuilds(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	parent := registerGraph(t, ts.URL, figure1())

	// Warm the parent store.
	postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: parent, L: 2, Cache: "off"})
	s := getStats(t, ts.URL)
	if s.Registry.Builds != 1 {
		t.Fatalf("builds after warming parent: %+v", s.Registry)
	}

	resp := patchGraph(t, ts.URL, parent, api.GraphPatchRequest{
		Add: [][2]int{{0, 6}}, Remove: [][2]int{{3, 4}},
	})
	child := decodeBody[api.GraphPatchResponse](t, resp).ID

	childBody := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: child, L: 2, Cache: "off"}))
	s = getStats(t, ts.URL)
	if s.Registry.Builds != 1 || s.Registry.Repairs != 1 || s.Registry.RepairFallbacks != 0 {
		t.Fatalf("child hydration was not a pure repair: %+v", s.Registry)
	}
	if s.Registry.Mutations != 1 {
		t.Fatalf("mutations=%d, want 1", s.Registry.Mutations)
	}

	// The repaired store serves the same answer a from-scratch build
	// would: the inline spelling of the child graph computes the report
	// without any store.
	var childEdges [][2]int
	for _, e := range figure1().Edges {
		if e != [2]int{3, 4} {
			childEdges = append(childEdges, e)
		}
	}
	childEdges = append(childEdges, [2]int{0, 6})
	inline := readBody(t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{
		Graph: api.Graph{N: 7, Edges: childEdges}, L: 2, Cache: "off",
	}))
	if !bytes.Equal(childBody, inline) {
		t.Fatalf("repaired-store opacity differs from inline:\n%s\n%s", childBody, inline)
	}

	// The metrics exposition carries the same counters.
	metrics := string(readBody(t, getOK(t, ts.URL+"/metrics")))
	for _, want := range []string{
		"lopserve_registry_mutations 1",
		"lopserve_registry_repairs 1",
		"lopserve_registry_repair_fallbacks 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestGraphPatchDisableRepair: the escape hatch forces child stores to
// build from scratch; nothing is counted as a repair or a fallback.
func TestGraphPatchDisableRepair(t *testing.T) {
	_, ts := newTestAPI(t, Config{DisableStoreRepair: true})
	parent := registerGraph(t, ts.URL, figure1())
	postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: parent, L: 2, Cache: "off"})
	resp := patchGraph(t, ts.URL, parent, api.GraphPatchRequest{Add: [][2]int{{0, 6}}})
	child := decodeBody[api.GraphPatchResponse](t, resp).ID
	postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: child, L: 2, Cache: "off"})
	s := getStats(t, ts.URL)
	if s.Registry.Builds != 2 || s.Registry.Repairs != 0 || s.Registry.RepairFallbacks != 0 {
		t.Fatalf("disabled repair stats: %+v", s.Registry)
	}
}

// rmatEdges generates an R-MAT-style power-law edge list (the
// recursive-quadrant model the paper benchmarks with), deduplicated
// and self-loop free.
func rmatEdges(n, m int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	seen := make(map[[2]int]bool, m)
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		u, v := 0, 0
		for l := 0; l < levels; l++ {
			p := rng.Float64()
			switch {
			case p < 0.57:
			case p < 0.76:
				v |= 1 << l
			case p < 0.95:
				u |= 1 << l
			default:
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u >= n || v >= n || u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return edges
}

// TestGraphPatchZeroBuildsRMAT exercises the same acceptance criterion
// at a mid-size R-MAT scale (where the repair is measurably cheaper
// than the build it replaces, not just correct).
func TestGraphPatchZeroBuildsRMAT(t *testing.T) {
	n, m := 3000, 9000
	if testing.Short() {
		n, m = 600, 1800
	}
	runPatchZeroBuildsRMAT(t, n, m)
}

// TestGraphPatchZeroBuildsRMAT100K is the full-scale acceptance run
// (RMAT 100k vertices / 1M edges): a k-edge PATCH with a warm parent
// store answers opacity with builds frozen at the parent's one. The
// distance triangle at this scale is ~5 GB, so the test is opt-in:
// set LOP_ACCEPT_RMAT=1 (and optionally LOP_RMAT_N / LOP_RMAT_M) to
// run it on a machine with the memory to spare.
func TestGraphPatchZeroBuildsRMAT100K(t *testing.T) {
	if os.Getenv("LOP_ACCEPT_RMAT") == "" {
		t.Skip("set LOP_ACCEPT_RMAT=1 to run the 100k-vertex acceptance test")
	}
	n, m := 100_000, 1_000_000
	if v := os.Getenv("LOP_RMAT_N"); v != "" {
		n, _ = strconv.Atoi(v)
	}
	if v := os.Getenv("LOP_RMAT_M"); v != "" {
		m, _ = strconv.Atoi(v)
	}
	runPatchZeroBuildsRMAT(t, n, m)
}

func runPatchZeroBuildsRMAT(t *testing.T, n, m int) {
	t.Helper()
	_, ts := newTestAPI(t, Config{MaxVertices: n})
	edges := rmatEdges(n, m, 42)
	parent := registerGraph(t, ts.URL, api.Graph{N: n, Edges: edges})

	postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: parent, L: 2, Cache: "off"})
	s := getStats(t, ts.URL)
	if s.Registry.Builds != 1 {
		t.Fatalf("builds after warming parent: %+v", s.Registry)
	}

	// A k-edge diff: three fresh edges, one removal.
	var add [][2]int
	for u := 0; len(add) < 3; u++ {
		e := [2]int{u, n - 1 - u}
		if !hasEdge(edges, e) && e[0] != e[1] {
			add = append(add, e)
		}
	}
	resp := patchGraph(t, ts.URL, parent, api.GraphPatchRequest{
		Add: add, Remove: [][2]int{edges[len(edges)/2]},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("patch: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	child := decodeBody[api.GraphPatchResponse](t, resp).ID

	if r := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: child, L: 2, Cache: "off"}); r.StatusCode != http.StatusOK {
		t.Fatalf("child opacity: status %d: %s", r.StatusCode, readBody(t, r))
	}
	s = getStats(t, ts.URL)
	if s.Registry.Builds != 1 || s.Registry.Repairs != 1 || s.Registry.RepairFallbacks != 0 {
		t.Fatalf("child hydration at n=%d was not a pure repair: %+v", n, s.Registry)
	}
}

func hasEdge(edges [][2]int, e [2]int) bool {
	for _, x := range edges {
		if x == e || (x[0] == e[1] && x[1] == e[0]) {
			return true
		}
	}
	return false
}

// TestContinuousAuditSync: the per-step opacity trajectory matches
// what a one-shot opacity check of each intermediate graph reports,
// and theta bookkeeping (satisfied, first_violation) is consistent.
func TestContinuousAuditSync(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	parent := registerGraph(t, ts.URL, fig)
	// Warm the parent store so the replay starts with zero builds.
	postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: parent, L: 2, Cache: "off"})

	steps := []api.MutationStep{
		{Add: [][2]int{{0, 6}}},
		{Remove: [][2]int{{3, 4}}, Add: [][2]int{{3, 6}}},
		{Remove: [][2]int{{0, 6}, {3, 6}}},
	}
	resp := postJSON(t, ts.URL+"/v1/continuous_audit", api.ContinuousAuditRequest{
		GraphRef: parent, L: 2, Theta: 0.8, Steps: steps,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	ca := decodeBody[api.ContinuousAuditResponse](t, resp)
	if len(ca.Steps) != len(steps) {
		t.Fatalf("steps %d, want %d", len(ca.Steps), len(steps))
	}
	if ca.Repairs+ca.Rebuilds != len(steps) {
		t.Fatalf("repairs %d + rebuilds %d != %d steps", ca.Repairs, ca.Rebuilds, len(steps))
	}
	if ca.Repairs == 0 {
		t.Fatalf("no step was served by repair: %+v", ca)
	}
	s := getStats(t, ts.URL)
	if s.Registry.Builds != 1 {
		t.Fatalf("the replay paid APSP builds beyond the warm parent: %+v", s.Registry)
	}

	// Replay the mutations by hand and compare each step's opacity with
	// the one-shot inline answer.
	cur := append([][2]int(nil), fig.Edges...)
	firstViolation := -1
	for i, step := range steps {
		next := cur[:0:0]
		for _, e := range cur {
			if !hasEdge(step.Remove, e) {
				next = append(next, e)
			}
		}
		cur = append(next, step.Add...)
		op := decodeBody[api.OpacityResponse](t, postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{
			Graph: api.Graph{N: 7, Edges: cur}, L: 2, Cache: "off",
		}))
		got := ca.Steps[i]
		if got.Step != i || got.M != len(cur) {
			t.Fatalf("step %d header: %+v (m want %d)", i, got, len(cur))
		}
		if got.MaxOpacity != op.MaxOpacity {
			t.Fatalf("step %d max_opacity %v, one-shot says %v", i, got.MaxOpacity, op.MaxOpacity)
		}
		if want := op.MaxOpacity <= 0.8; got.Satisfied != want {
			t.Fatalf("step %d satisfied=%v at opacity %v theta 0.8", i, got.Satisfied, op.MaxOpacity)
		}
		if !got.Satisfied && firstViolation < 0 {
			firstViolation = i
		}
	}
	if ca.FirstViolation != firstViolation {
		t.Fatalf("first_violation %d, want %d", ca.FirstViolation, firstViolation)
	}
}

// TestContinuousAuditConflict: a step whose edit conflicts with the
// accumulated graph state (not just the base graph) fails the request
// with a step-indexed message.
func TestContinuousAuditConflict(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/continuous_audit", api.ContinuousAuditRequest{
		Graph: figure1(), L: 2,
		Steps: []api.MutationStep{
			{Add: [][2]int{{0, 6}}},
			{Add: [][2]int{{0, 6}}}, // now present: conflict at replay time
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if body := string(readBody(t, resp)); !strings.Contains(body, "step 1") {
		t.Fatalf("error does not name the failing step: %s", body)
	}
}

func TestContinuousAuditValidation(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	for name, req := range map[string]api.ContinuousAuditRequest{
		"l zero":      {Graph: figure1(), L: 0, Steps: []api.MutationStep{{Add: [][2]int{{0, 6}}}}},
		"theta range": {Graph: figure1(), L: 2, Theta: 1.5, Steps: []api.MutationStep{{Add: [][2]int{{0, 6}}}}},
		"no steps":    {Graph: figure1(), L: 2},
		"bad diff":    {Graph: figure1(), L: 2, Steps: []api.MutationStep{{Add: [][2]int{{0, 7}}}}},
	} {
		resp := postJSON(t, ts.URL+"/v1/continuous_audit", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestContinuousAuditJobProgress: as an async job, the replay streams
// per-step opacity onto the NDJSON event stream before completing.
func TestContinuousAuditJobProgress(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, jr := submitJob(t, ts.URL, "continuous_audit", api.ContinuousAuditRequest{
		Graph: figure1(), L: 2, Steps: []api.MutationStep{
			{Add: [][2]int{{0, 6}}},
			{Remove: [][2]int{{0, 6}}},
		},
	})
	events := readEvents(t, ts.URL+"/v1/jobs/"+jr.ID+"/events")
	progress := 0
	for _, ev := range events {
		if ev.Type == api.JobEventProgress {
			if ev.Progress == nil || ev.Progress.Steps < 1 {
				t.Fatalf("malformed progress event: %+v", ev)
			}
			progress++
		}
	}
	if progress < 1 {
		t.Fatalf("no progress events in stream: %+v", events)
	}
	last := events[len(events)-1]
	if last.Type != api.JobEventState || last.State != "done" {
		t.Fatalf("last event %+v, want done", last)
	}
	done := awaitJob(t, ts.URL, jr.ID, "done")
	var ca api.ContinuousAuditResponse
	if err := json.Unmarshal(done.Result, &ca); err != nil {
		t.Fatalf("result not a ContinuousAuditResponse: %v", err)
	}
	if len(ca.Steps) != 2 {
		t.Fatalf("job result steps: %+v", ca)
	}
}
