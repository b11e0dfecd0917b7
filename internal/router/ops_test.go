package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/api"
)

// recordingTransport records the peer each POST the router sends went
// to, by path.
type recordingTransport struct {
	mu    sync.Mutex
	posts map[string][]string // path -> peer base URLs
}

func (c *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		c.mu.Lock()
		c.posts[r.URL.Path] = append(c.posts[r.URL.Path], r.URL.Scheme+"://"+r.URL.Host)
		c.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the peers POSTs to path went to so far and starts over.
func (c *recordingTransport) take(path string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	peers := c.posts[path]
	c.posts = map[string][]string{}
	return peers
}

// TestRouterEveryOpRoute drives every operation of the wire table
// through the router on its sync route, as a batch item and as a job.
// An empty document gets the standalone lopserve's answer byte for
// byte on each path, a 400 invalid_request; and a document naming a
// registered graph_ref lands on that graph's ring owner on each path.
// The rows come from api.Ops, so a new operation is covered as soon as
// it is in the table.
func TestRouterEveryOpRoute(t *testing.T) {
	rec := &recordingTransport{posts: map[string][]string{}}
	tr := startTierClient(t, 2, &http.Client{Transport: rec})
	solo := startBackend(t)
	id := registerViaRouter(t, tr)
	owner, _ := tr.backendFor(id)

	for _, op := range api.Ops {
		t.Run(op.Name, func(t *testing.T) {
			ways := func(doc json.RawMessage) []struct {
				path string
				body any
			} {
				return []struct {
					path string
					body any
				}{
					{"/v1/" + op.Name, doc},
					{"/v1/batch", api.BatchRequest{Items: []api.BatchItem{{Op: op.Name, Request: doc}}}},
					{"/v1/jobs", api.JobSubmitRequest{Op: op.Name, Request: doc}},
				}
			}
			for _, way := range ways(json.RawMessage(`{}`)) {
				wantStatus, want := postJSON(t, solo.base+way.path, way.body)
				status, got := postJSON(t, tr.proxy.URL+way.path, way.body)
				if status != wantStatus || !bytes.Equal(got, want) {
					t.Fatalf("%s {}: router %d %s, standalone %d %s", way.path, status, got, wantStatus, want)
				}
				var e *api.Error
				if way.path == "/v1/batch" {
					var resp api.BatchResponse
					if err := json.Unmarshal(got, &resp); err != nil || len(resp.Results) != 1 {
						t.Fatalf("%s {}: %s", way.path, got)
					}
					status, e = resp.Results[0].Status, resp.Results[0].Error
				} else {
					var er api.ErrorResponse
					if err := json.Unmarshal(got, &er); err != nil {
						t.Fatalf("%s {}: %s", way.path, got)
					}
					e = er.Err
				}
				if status != http.StatusBadRequest || e == nil || e.Code != api.CodeInvalidRequest {
					t.Fatalf("%s {}: %d %+v, want 400 %s", way.path, status, e, api.CodeInvalidRequest)
				}
			}

			req := op.New()
			refs, _ := req.Graphs()
			if len(refs) == 0 {
				return
			}
			*refs[0] = id
			rec.take("")
			for _, way := range ways(mustJSON(t, req)) {
				postJSON(t, tr.proxy.URL+way.path, way.body)
				if peers := rec.take(way.path); len(peers) == 0 || peers[0] != owner.base {
					t.Fatalf("%s naming graph_ref %s went to %v, want its owner %s", way.path, id, peers, owner.base)
				}
			}
		})
	}
}

// TestRouterBatchSharedRefOnlyWhereInherited sends a batch with a
// shared graph_ref A whose items span A's owner, B's owner and any
// peer. Only the sub-batch of the item that inherits A carries it, so
// no peer gets A copied onto it to pass the shared-ref check, and the
// answer equals a standalone backend holding A and B. With a shared
// ref no peer holds, only the sub-batch that carries it fails.
func TestRouterBatchSharedRefOnlyWhereInherited(t *testing.T) {
	tr := startTier(t, 2)
	solo := startBackend(t)
	gA := tr.ownedGraphs(tr.backends[0].base, 1)[0]
	gB := tr.ownedGraphs(tr.backends[1].base, 1)[0]
	for _, g := range []*api.Graph{gA, gB} {
		registerOn(t, tr.proxy.URL, g)
		registerOn(t, solo.base, g)
	}
	batch := api.BatchRequest{GraphRef: digestOf(gA), Items: []api.BatchItem{
		{Op: "opacity", Request: json.RawMessage(`{"l":2}`)},
		batchItem(t, "opacity", api.OpacityRequest{GraphRef: digestOf(gB), L: 2}),
		batchItem(t, "dataset", api.DatasetRequest{Key: "gnutella100", Seed: 1}),
	}}
	status, want := postJSON(t, solo.base+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("solo batch: %d %s", status, want)
	}
	status, got := postJSON(t, tr.proxy.URL+"/v1/batch", batch)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("tier batch %d differs from solo:\ntier: %s\nsolo: %s", status, got, want)
	}
	stats := getJSON[api.StatsResponse](t, tr.proxy.URL+"/v1/stats")
	if h := stats.Router.Hydrations; h != 0 {
		t.Fatalf("router hydrations = %d, want 0", h)
	}
	for _, b := range tr.backends {
		if n := stats.Router.PerPeer[b.base].Registry.Graphs; n != 1 {
			t.Fatalf("peer %s holds %d graphs, want 1", b.base, n)
		}
	}

	// A dangling ref A's owner would serve: B's sub-batch does not carry it.
	for n := 0; batch.GraphRef == digestOf(gA) || tr.rt.Ring().Owner(batch.GraphRef) != tr.backends[0].base; n++ {
		batch.GraphRef = fmt.Sprintf("no-such-graph-%d", n)
	}
	status, got = postJSON(t, tr.proxy.URL+"/v1/batch", batch)
	var resp api.BatchResponse
	if err := json.Unmarshal(got, &resp); status != http.StatusOK || err != nil || len(resp.Results) != 3 {
		t.Fatalf("dangling shared ref: %d %s", status, got)
	}
	for i, res := range resp.Results {
		if failed := res.Status == http.StatusNotFound && res.Error != nil && res.Error.Code == api.CodeGraphNotFound; failed != (i == 0) {
			t.Fatalf("dangling shared ref: item %d answered %d %+v", i, res.Status, res.Error)
		}
		if i > 0 && res.Status != http.StatusOK {
			t.Fatalf("dangling shared ref: item %d answered %d %+v", i, res.Status, res.Error)
		}
	}
}
