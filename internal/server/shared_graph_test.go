package server

import (
	"net/http"
	"slices"
	"testing"

	"repro/api"
	"repro/internal/registry"
)

// TestHandlersLeaveRegisteredGraphUnchanged drives every handler that
// accepts a graph reference against one registered graph and checks
// that the entry's adjacency — one graph shared by the registry and its
// public view — still holds exactly the registered edges afterwards.
func TestHandlersLeaveRegisteredGraphUnchanged(t *testing.T) {
	s, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)
	ent, ok := s.reg.Get(id)
	if !ok {
		t.Fatal("registered graph not found")
	}
	wantEdges := slices.Clone(ent.Edges())
	wantDegrees := slices.Clone(ent.Degrees())
	steps, published := anonymizeWithTrace(t, fig, 0.5)

	expectOK := func(what string, resp *http.Response) {
		t.Helper()
		body := readBody(t, resp)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s: status %d: %s", what, resp.StatusCode, body)
		}
	}
	expectOK("graph", getOK(t, ts.URL+"/v1/graphs/"+id))
	expectOK("snapshot", getOK(t, ts.URL+"/v1/graphs/"+id+"/snapshot"))
	expectOK("properties", postJSON(t, ts.URL+"/v1/properties", api.PropertiesRequest{GraphRef: id}))
	expectOK("opacity", postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{GraphRef: id, L: 2, Cache: "off"}))
	for _, method := range []string{"rem", "rem-ins"} {
		expectOK("anonymize "+method, postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
			GraphRef: id, L: 2, Theta: 0, Method: method, Seed: 1, Cache: "off",
		}))
	}
	expectOK("kiso", postJSON(t, ts.URL+"/v1/kiso", api.KIsoRequest{GraphRef: id, K: 2, Seed: 1}))
	expectOK("audit", postJSON(t, ts.URL+"/v1/audit", api.AuditRequest{
		PublishedRef: id, OriginalRef: id, L: 1, Theta: 0.5,
	}))
	expectOK("continuous audit", postJSON(t, ts.URL+"/v1/continuous_audit", api.ContinuousAuditRequest{
		GraphRef: id, L: 2, Steps: []api.MutationStep{{Remove: [][2]int{{0, 1}}}, {Add: [][2]int{{0, 6}}}},
	}))
	expectOK("replay", postJSON(t, ts.URL+"/v1/replay", api.ReplayRequest{
		OriginalRef: id, Trace: steps, L: 1, Theta: 0.5, Published: &published,
	}))
	expectOK("batch", postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{GraphRef: id, Items: []api.BatchItem{
		batchItem(t, "opacity", api.OpacityRequest{L: 1, Cache: "off"}),
		batchItem(t, "anonymize", api.AnonymizeRequest{L: 1, Theta: 0.5, Method: "rem", Seed: 1, Cache: "off"}),
	}}))
	_, job := submitJob(t, ts.URL, "anonymize", api.AnonymizeRequest{
		GraphRef: id, L: 2, Theta: 0, Method: "rem-ins", Seed: 2, Cache: "off",
	})
	awaitJob(t, ts.URL, job.ID, "done")
	expectOK("patch", patchGraph(t, ts.URL, id, api.GraphPatchRequest{Remove: [][2]int{{5, 6}}}))

	if !slices.Equal(ent.Edges(), wantEdges) || !slices.Equal(ent.Degrees(), wantDegrees) {
		t.Fatalf("entry edges/degrees changed: %v %v", ent.Edges(), ent.Degrees())
	}
	pub := ent.Public()
	if got := pub.Edges(); !slices.Equal(got, wantEdges) {
		t.Fatalf("shared adjacency changed: %v, want %v", got, wantEdges)
	}
	if got := registry.Digest(pub.N(), pub.Edges()); got != id {
		t.Fatalf("digest of the shared adjacency is %s, want %s", got, id)
	}
}
