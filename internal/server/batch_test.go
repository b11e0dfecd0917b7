package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/api"
)

// batchItem marshals an op-specific request into a batch item.
func batchItem(t *testing.T, op string, req any) api.BatchItem {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return api.BatchItem{Op: op, Request: b}
}

// TestBatchSharedRefSingleStoreBuild is the acceptance-criteria test:
// N opacity items against one graph_ref perform at most one APSP
// build. The items bypass the result cache so every one of them
// actually computes — what they share is the registry's distance
// store, and the store counters prove it.
func TestBatchSharedRefSingleStoreBuild(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := registerGraph(t, ts.URL, figure1())

	const n = 5
	req := api.BatchRequest{GraphRef: id}
	for i := 0; i < n; i++ {
		req.Items = append(req.Items, batchItem(t, "opacity", api.OpacityRequest{L: 2, Cache: "off"}))
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[api.BatchResponse](t, resp)
	if br.Succeeded != n || br.Failed != 0 {
		t.Fatalf("succeeded=%d failed=%d, want %d/0", br.Succeeded, br.Failed, n)
	}
	for _, item := range br.Results {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d: status %d, error %v", item.Index, item.Status, item.Error)
		}
		var rep api.OpacityResponse
		if err := json.Unmarshal(item.Result, &rep); err != nil {
			t.Fatalf("item %d: %v", item.Index, err)
		}
		if rep.L != 2 {
			t.Fatalf("item %d: l=%d, want 2", item.Index, rep.L)
		}
	}

	stats := getStats(t, ts.URL)
	if stats.Registry.StoreMisses != 1 {
		t.Fatalf("store_misses=%d, want exactly 1 APSP build for %d items", stats.Registry.StoreMisses, n)
	}
	if stats.Registry.StoreHits < n-1 {
		t.Fatalf("store_hits=%d, want >= %d", stats.Registry.StoreHits, n-1)
	}
}

// TestBatchHeterogeneousSharedRef exercises the heterogeneous case the
// tentpole describes: different operations in one batch inheriting one
// graph reference, plus an item that carries its own inline graph and
// must NOT inherit.
func TestBatchHeterogeneousSharedRef(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := registerGraph(t, ts.URL, figure1())

	inline := api.Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	req := api.BatchRequest{
		GraphRef: id,
		Items: []api.BatchItem{
			batchItem(t, "properties", api.PropertiesRequest{}),
			batchItem(t, "opacity", api.OpacityRequest{L: 1}),
			batchItem(t, "anonymize", api.AnonymizeRequest{L: 1, Theta: 0.5, Seed: 1}),
			batchItem(t, "properties", api.PropertiesRequest{Graph: inline}),
		},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[api.BatchResponse](t, resp)
	if br.Succeeded != 4 {
		t.Fatalf("succeeded=%d, want 4 (results: %+v)", br.Succeeded, br.Results)
	}
	var sharedProps, inlineProps api.PropertiesResponse
	if err := json.Unmarshal(br.Results[0].Result, &sharedProps); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(br.Results[3].Result, &inlineProps); err != nil {
		t.Fatal(err)
	}
	if sharedProps.Nodes != 7 {
		t.Fatalf("shared-ref properties nodes=%d, want 7", sharedProps.Nodes)
	}
	if inlineProps.Nodes != 3 {
		t.Fatalf("inline-graph item inherited the shared ref: nodes=%d, want 3", inlineProps.Nodes)
	}
}

// TestBatchItemIsolation: a failing item records its own status and
// structured error without affecting its neighbors, and the batch
// itself stays 200.
func TestBatchItemIsolation(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := registerGraph(t, ts.URL, figure1())

	req := api.BatchRequest{
		GraphRef: id,
		Items: []api.BatchItem{
			batchItem(t, "opacity", api.OpacityRequest{L: 1}),
			batchItem(t, "opacity", api.OpacityRequest{L: -1}), // bad parameter
			{Op: "quantum", Request: json.RawMessage(`{}`)},    // unknown op
			batchItem(t, "opacity", api.OpacityRequest{L: 1, GraphRef: "no-such-graph"}),
			batchItem(t, "dataset", api.DatasetRequest{Key: "no-such-dataset"}),
			batchItem(t, "opacity", api.OpacityRequest{L: 2}),
		},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[api.BatchResponse](t, resp)
	if br.Succeeded != 2 || br.Failed != 4 {
		t.Fatalf("succeeded=%d failed=%d, want 2/4", br.Succeeded, br.Failed)
	}
	wantStatus := []int{200, 400, 400, 404, 404, 200}
	wantCode := []string{"", api.CodeInvalidRequest, api.CodeInvalidRequest, api.CodeGraphNotFound, api.CodeDatasetNotFound, ""}
	for i, item := range br.Results {
		if item.Index != i {
			t.Errorf("result %d: index %d", i, item.Index)
		}
		if item.Status != wantStatus[i] {
			t.Errorf("item %d: status %d, want %d", i, item.Status, wantStatus[i])
		}
		if wantCode[i] == "" {
			if item.Error != nil {
				t.Errorf("item %d: unexpected error %v", i, item.Error)
			}
			continue
		}
		if item.Error == nil || item.Error.Code != wantCode[i] {
			t.Errorf("item %d: error %+v, want code %q", i, item.Error, wantCode[i])
		}
	}
}

// TestBatchSharedRefCacheReuse: identical cacheable items inside one
// batch are answered from the content-addressed result cache, flagged
// per item, and byte-identical.
func TestBatchSharedRefCacheReuse(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := registerGraph(t, ts.URL, figure1())

	req := api.BatchRequest{
		GraphRef: id,
		Items: []api.BatchItem{
			batchItem(t, "opacity", api.OpacityRequest{L: 2}),
			batchItem(t, "opacity", api.OpacityRequest{L: 2}),
		},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	br := decodeBody[api.BatchResponse](t, resp)
	if br.Succeeded != 2 {
		t.Fatalf("succeeded=%d, want 2", br.Succeeded)
	}
	if br.Results[0].CacheHit {
		t.Fatal("first item must be the miss that populates the cache")
	}
	if !br.Results[1].CacheHit {
		t.Fatal("second identical item must be a cache hit")
	}
	if string(br.Results[0].Result) != string(br.Results[1].Result) {
		t.Fatal("cache hit is not byte-identical to the miss")
	}
}

// TestBatchRepeatsRunInOrder interleaves repeats of three cacheable
// items. Items run concurrently, but repeats share a lane, so the cache
// flags are those of a sequential run: each item's first occurrence is
// the miss, every later one a byte-identical hit.
func TestBatchRepeatsRunInOrder(t *testing.T) {
	for round := 0; round < 5; round++ {
		ts := newTestServer(t, Config{})
		id := registerGraph(t, ts.URL, figure1())
		var req api.BatchRequest
		for _, l := range []int{2, 3, 2, 4, 3, 2} {
			req.Items = append(req.Items, batchItem(t, "opacity", api.OpacityRequest{GraphRef: id, L: l}))
		}
		br := decodeBody[api.BatchResponse](t, postJSON(t, ts.URL+"/v1/batch", req))
		first := map[string]string{}
		for i, res := range br.Results {
			doc := string(req.Items[i].Request)
			want, seen := first[doc]
			if res.Status != http.StatusOK || res.CacheHit != seen {
				t.Fatalf("round %d item %d: status %d cache_hit %v, want 200 and %v", round, i, res.Status, res.CacheHit, seen)
			}
			if seen && string(res.Result) != want {
				t.Fatalf("round %d item %d: cache hit differs from the miss", round, i)
			}
			first[doc] = string(res.Result)
		}
	}
}

// TestBatchEnvelopeValidation: empty batches, oversized batches, and a
// dangling shared reference fail the whole request with the matching
// status and code.
func TestBatchEnvelopeValidation(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatchItems: 2})

	resp := postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}

	over := api.BatchRequest{Items: []api.BatchItem{
		batchItem(t, "properties", api.PropertiesRequest{Graph: figure1()}),
		batchItem(t, "properties", api.PropertiesRequest{Graph: figure1()}),
		batchItem(t, "properties", api.PropertiesRequest{Graph: figure1()}),
	}}
	resp = postJSON(t, ts.URL+"/v1/batch", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}

	dangling := api.BatchRequest{GraphRef: "no-such-graph", Items: []api.BatchItem{
		batchItem(t, "opacity", api.OpacityRequest{L: 1}),
	}}
	resp = postJSON(t, ts.URL+"/v1/batch", dangling)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dangling shared ref: status %d, want 404", resp.StatusCode)
	}
	body := decodeError(t, resp)
	if body.Err.Code != api.CodeGraphNotFound {
		t.Fatalf("code %q, want %q", body.Err.Code, api.CodeGraphNotFound)
	}
}

// plainBatch is api.BatchResponse without its codec, so json.NewEncoder
// encodes it by reflection: the reference every batch body must equal
// byte for byte.
type plainBatch api.BatchResponse

// TestBatchBodyMatchesEncodingJSON sends a batch of every batchable op,
// with cache misses and hits, failing items and an error that echoes
// HTML characters and a quote, and requires the body to be exactly what
// json.NewEncoder writes for the value it holds.
func TestBatchBodyMatchesEncodingJSON(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	fig := figure1()
	id := registerGraph(t, ts.URL, fig)
	steps, published := anonymizeWithTrace(t, fig, 0.5)
	const badRef = `<x>&"`
	anon := api.AnonymizeRequest{L: 1, Theta: 0.5, Method: "rem", Seed: 1}
	req := api.BatchRequest{GraphRef: id, Items: []api.BatchItem{
		batchItem(t, "properties", api.PropertiesRequest{}),
		batchItem(t, "opacity", api.OpacityRequest{L: 2}),
		batchItem(t, "opacity", api.OpacityRequest{L: 2}),
		batchItem(t, "anonymize", anon),
		batchItem(t, "anonymize", anon),
		batchItem(t, "kiso", api.KIsoRequest{K: 2, Seed: 1}),
		batchItem(t, "audit", api.AuditRequest{PublishedRef: id, OriginalRef: id, L: 1, Theta: 0.5}),
		batchItem(t, "replay", api.ReplayRequest{OriginalRef: id, Trace: steps, L: 1, Theta: 0.5, Published: &published}),
		batchItem(t, "dataset", api.DatasetRequest{Key: "gnutella100", Seed: 1}),
		batchItem(t, "opacity", api.OpacityRequest{GraphRef: badRef, L: 2}),
		batchItem(t, "opacity", api.OpacityRequest{L: -1}),
	}}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var plain plainBatch
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("body differs from json.NewEncoder:\n%s\n%s", body, want.Bytes())
	}
	var br api.BatchResponse
	if err := br.UnmarshalJSON(body); err != nil || !reflect.DeepEqual(br, api.BatchResponse(plain)) {
		t.Fatalf("UnmarshalJSON gave %+v, %v; encoding/json %+v", br, err, plain)
	}

	if br.Succeeded != 9 || br.Failed != 2 {
		t.Fatalf("succeeded=%d failed=%d, want 9/2: %s", br.Succeeded, br.Failed, body)
	}
	for i, hit := range []bool{false, false, true, false, true, false, false, false, false, false, false} {
		if br.Results[i].CacheHit != hit {
			t.Errorf("item %d: cache_hit %v, want %v", i, br.Results[i].CacheHit, hit)
		}
	}
	e := br.Results[9].Error
	if e == nil || e.Details["graph_ref"] != badRef || !strings.Contains(e.Message, strconv.Quote(badRef)) {
		t.Fatalf("bad graph_ref item: error %+v, want it to echo %q in message and details", e, badRef)
	}
	if !bytes.Contains(body, []byte(`"graph_ref":"\u003cx\u003e\u0026\""`)) {
		t.Fatalf("the echoed reference is not escaped as encoding/json escapes it: %s", body)
	}
}
