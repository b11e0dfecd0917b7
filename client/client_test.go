package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/client"
	"repro/internal/server"
)

// figure1 is the paper's running-example graph (vertices renumbered
// 0-6).
func figure1() api.Graph {
	return api.Graph{N: 7, Edges: [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 4}, {4, 5}, {5, 6},
	}}
}

// newClient boots an in-process server and a client against it.
func newClient(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoundTripEveryEndpoint exercises each typed method against an
// in-process server — the acceptance criterion that the client and
// server agree on the whole wire contract.
func TestRoundTripEveryEndpoint(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	fig := figure1()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}

	keys, err := c.Datasets(ctx)
	if err != nil || len(keys) == 0 {
		t.Fatalf("Datasets: %v (%d keys)", err, len(keys))
	}

	ds, err := c.Dataset(ctx, "gnutella100", 1)
	if err != nil || ds.Properties.Nodes != 100 {
		t.Fatalf("Dataset: %v (%+v)", err, ds)
	}

	props, err := c.Properties(ctx, api.PropertiesRequest{Graph: fig})
	if err != nil || props.Nodes != 7 || props.Links != 10 {
		t.Fatalf("Properties: %v (%+v)", err, props)
	}

	rep, err := c.Opacity(ctx, api.OpacityRequest{Graph: fig, L: 1})
	if err != nil || rep.MaxOpacity != 1 {
		t.Fatalf("Opacity: %v (%+v)", err, rep)
	}

	anon, err := c.Anonymize(ctx, api.AnonymizeRequest{Graph: fig, L: 1, Theta: 0.5, Method: "rem", Seed: 1})
	if err != nil || !anon.Satisfied {
		t.Fatalf("Anonymize: %v (%+v)", err, anon)
	}

	kiso, err := c.KIso(ctx, api.KIsoRequest{Graph: fig, K: 2, Seed: 1})
	if err != nil || len(kiso.Blocks) != 2 {
		t.Fatalf("KIso: %v (%+v)", err, kiso)
	}

	audit, err := c.Audit(ctx, api.AuditRequest{Published: anon.Graph, Original: fig, L: 1, Theta: 0.5})
	if err != nil || !audit.Passed {
		t.Fatalf("Audit: %v (%+v)", err, audit)
	}

	replay, err := c.Replay(ctx, api.ReplayRequest{Original: fig, L: 1, Theta: 1, Fast: true})
	if err != nil || !replay.Verified {
		t.Fatalf("Replay: %v (%+v)", err, replay)
	}

	reg, err := c.Graphs.Register(ctx, api.GraphRegisterRequest{Graph: &fig})
	if err != nil || !reg.Created {
		t.Fatalf("Graphs.Register: %v (%+v)", err, reg)
	}
	list, err := c.Graphs.List(ctx)
	if err != nil || len(list.Graphs) != 1 {
		t.Fatalf("Graphs.List: %v (%+v)", err, list)
	}
	info, err := c.Graphs.Get(ctx, reg.ID)
	if err != nil || info.N != 7 {
		t.Fatalf("Graphs.Get: %v (%+v)", err, info)
	}

	job, err := c.Jobs.Submit(ctx, "opacity", api.OpacityRequest{GraphRef: reg.ID, L: 2})
	if err != nil {
		t.Fatalf("Jobs.Submit: %v", err)
	}
	final, err := c.Jobs.Wait(ctx, job.ID)
	if err != nil || final.State != api.JobDone {
		t.Fatalf("Jobs.Wait: %v (%+v)", err, final)
	}
	if len(final.Result) == 0 {
		t.Fatal("Jobs.Wait: done job has no result")
	}

	batch, err := c.Batch(ctx, api.BatchRequest{GraphRef: reg.ID, Items: []api.BatchItem{
		mustItem(t, "opacity", api.OpacityRequest{L: 1}),
		mustItem(t, "properties", api.PropertiesRequest{}),
	}})
	if err != nil || batch.Succeeded != 2 {
		t.Fatalf("Batch: %v (%+v)", err, batch)
	}

	stats, err := c.Stats(ctx)
	if err != nil || stats.Registry.Graphs != 1 {
		t.Fatalf("Stats: %v (%+v)", err, stats)
	}

	if err := c.Graphs.Delete(ctx, reg.ID); err != nil {
		t.Fatalf("Graphs.Delete: %v", err)
	}
	if _, err := c.Graphs.Get(ctx, reg.ID); !api.IsCode(err, api.CodeGraphNotFound) {
		t.Fatalf("Graphs.Get after delete: %v, want graph_not_found", err)
	}
}

func mustItem(t *testing.T, op string, req any) api.BatchItem {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return api.BatchItem{Op: op, Request: b}
}

// TestErrorsCarryCodeAndStatus: non-2xx responses surface as *api.Error
// with the machine-readable code and HTTP status.
func TestErrorsCarryCodeAndStatus(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()

	_, err := c.Opacity(ctx, api.OpacityRequest{Graph: figure1(), L: 0})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T, want *api.Error", err)
	}
	if ae.Code != api.CodeInvalidRequest || ae.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("error %+v, want invalid_request/400", ae)
	}

	_, err = c.Opacity(ctx, api.OpacityRequest{GraphRef: "no-such", L: 1})
	if !api.IsCode(err, api.CodeGraphNotFound) {
		t.Fatalf("error %v, want graph_not_found", err)
	}
	if errors.As(err, &ae); ae.HTTPStatus != http.StatusNotFound {
		t.Fatalf("status %d, want 404", ae.HTTPStatus)
	}
	if ae.Details["graph_ref"] != "no-such" {
		t.Fatalf("details %+v, want graph_ref", ae.Details)
	}
}

// TestGraphHandleUploadOnce: the Graph handle registers exactly once
// across many operations, then queries by reference.
func TestGraphHandleUploadOnce(t *testing.T) {
	srv := server.New(server.Config{})
	var registers atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/graphs" {
			registers.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	fig := figure1()
	g := c.NewGraph(fig.N, fig.Edges)

	if _, err := g.Properties(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Opacity(ctx, api.OpacityRequest{L: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Anonymize(ctx, api.AnonymizeRequest{L: 1, Theta: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Batch(ctx, []api.BatchItem{mustItem(t, "opacity", api.OpacityRequest{L: 1})}); err != nil {
		t.Fatal(err)
	}
	if got := registers.Load(); got != 1 {
		t.Fatalf("graph registered %d times across 4 operations, want exactly once", got)
	}
}

// TestStreamedJobReportsProgress is the client side of the acceptance
// criterion: a streamed anonymize job delivers at least one progress
// event before its terminal state event.
func TestStreamedJobReportsProgress(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	fig := figure1()
	g := c.NewGraph(fig.N, fig.Edges)

	job, err := g.SubmitAnonymize(ctx, api.AnonymizeRequest{L: 1, Theta: 0.5, Method: "rem", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	progress := 0
	sawTerminal := false
	err = c.Jobs.Events(ctx, job.ID, func(ev api.JobEvent) error {
		switch ev.Type {
		case api.JobEventProgress:
			if sawTerminal {
				t.Error("progress event after terminal state")
			}
			if ev.Progress == nil || ev.Progress.Steps < 1 {
				t.Errorf("bad progress payload %+v", ev.Progress)
			}
			progress++
		case api.JobEventState:
			if api.JobFinished(ev.State) {
				sawTerminal = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if progress < 1 {
		t.Fatal("streamed job reported no progress events before completion")
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal state event")
	}

	final, err := c.Jobs.Wait(ctx, job.ID)
	if err != nil || final.State != api.JobDone {
		t.Fatalf("Wait: %v (%+v)", err, final)
	}
}

// TestGraphHandleRecoversFromStaleRef: a reference the server stopped
// recognizing (deletion, LRU eviction, restart) is transparently
// re-registered and the operation retried, instead of failing forever.
func TestGraphHandleRecoversFromStaleRef(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	fig := figure1()
	g := c.NewGraph(fig.N, fig.Edges)

	ref, err := g.Ref(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate eviction: the server forgets the graph behind the
	// handle's back.
	if err := c.Graphs.Delete(ctx, ref); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Opacity(ctx, api.OpacityRequest{L: 1})
	if err != nil {
		t.Fatalf("Opacity after server-side deletion: %v", err)
	}
	if rep.MaxOpacity != 1 {
		t.Fatalf("recovered call returned %+v", rep)
	}
}

// TestEventsStreamTruncated: a stream that ends without a terminal
// state event (job evicted mid-watch) is distinguishable from clean
// completion.
func TestEventsStreamTruncated(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(api.JobEvent{Seq: 0, Type: api.JobEventState, State: api.JobQueued})
		json.NewEncoder(w).Encode(api.JobEvent{Seq: 1, Type: api.JobEventState, State: api.JobRunning})
		// ...and the server drops the stream with the job unfinished.
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Jobs.Events(context.Background(), "x", func(api.JobEvent) error { return nil })
	if !errors.Is(err, client.ErrStreamTruncated) {
		t.Fatalf("Events returned %v, want ErrStreamTruncated", err)
	}
}

// TestEventsCallbackAbort: fn returning an error stops the stream and
// surfaces that error.
func TestEventsCallbackAbort(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	job, err := c.Jobs.Submit(ctx, "properties", api.PropertiesRequest{Graph: figure1()})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	err = c.Jobs.Events(ctx, job.ID, func(ev api.JobEvent) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Events returned %v, want the callback's error", err)
	}
}

// TestGraphHandlePatch: Patch mints a child handle that queries by its
// own reference, echoes lineage, and — like any handle — re-derives
// itself (re-patching the parent, which re-registers in turn) after
// the server forgets both graphs.
func TestGraphHandlePatch(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	fig := figure1()
	parent := c.NewGraph(fig.N, fig.Edges)

	child, err := parent.Patch(ctx, [][2]int{{0, 6}}, [][2]int{{3, 4}})
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	childRef, err := child.Ref(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parentRef, _ := parent.Ref(ctx)
	if childRef == parentRef {
		t.Fatal("child ref equals parent ref")
	}
	info, err := c.Graphs.Get(ctx, childRef)
	if err != nil {
		t.Fatal(err)
	}
	if info.Lineage == nil || info.Lineage.Parent != parentRef {
		t.Fatalf("child lineage: %+v", info.Lineage)
	}

	// The child's opacity differs from a fresh compute only in transport.
	rep, err := child.Opacity(ctx, api.OpacityRequest{L: 2})
	if err != nil {
		t.Fatalf("child Opacity: %v", err)
	}
	if rep.L != 2 {
		t.Fatalf("child opacity: %+v", rep)
	}

	// An invalid diff is an *api.Error with the edge code.
	if _, err := parent.Patch(ctx, [][2]int{{0, 1}}, nil); !api.IsCode(err, api.CodeInvalidEdge) {
		t.Fatalf("conflicting patch error: %v", err)
	}

	// Forget BOTH graphs server-side: the child re-derives through the
	// parent chain transparently.
	if err := c.Graphs.Delete(ctx, childRef); err != nil {
		t.Fatal(err)
	}
	if err := c.Graphs.Delete(ctx, parentRef); err != nil {
		t.Fatal(err)
	}
	rep2, err := child.Opacity(ctx, api.OpacityRequest{L: 2})
	if err != nil {
		t.Fatalf("child Opacity after double deletion: %v", err)
	}
	if rep2.MaxOpacity != rep.MaxOpacity {
		t.Fatalf("re-derived child answered %v, want %v", rep2.MaxOpacity, rep.MaxOpacity)
	}
}

// TestContinuousAuditClient: the typed method and the by-ref handle
// method agree with each other.
func TestContinuousAuditClient(t *testing.T) {
	c := newClient(t, server.Config{})
	ctx := context.Background()
	fig := figure1()
	steps := []api.MutationStep{
		{Add: [][2]int{{0, 6}}},
		{Remove: [][2]int{{0, 6}}},
	}
	inline, err := c.ContinuousAudit(ctx, api.ContinuousAuditRequest{Graph: fig, L: 2, Steps: steps})
	if err != nil {
		t.Fatalf("ContinuousAudit: %v", err)
	}
	if len(inline.Steps) != 2 || inline.Repairs+inline.Rebuilds != 2 {
		t.Fatalf("inline response: %+v", inline)
	}
	g := c.NewGraph(fig.N, fig.Edges)
	viaRef, err := g.ContinuousAudit(ctx, api.ContinuousAuditRequest{L: 2, Steps: steps})
	if err != nil {
		t.Fatalf("handle ContinuousAudit: %v", err)
	}
	if len(viaRef.Steps) != 2 || viaRef.Steps[0].MaxOpacity != inline.Steps[0].MaxOpacity {
		t.Fatalf("ref response %+v differs from inline %+v", viaRef, inline)
	}
}

// plainOpacity and plainBatch are api.OpacityResponse and
// api.BatchResponse without their codecs: decoding into them with
// json.Decoder is how the client read those bodies before the types had
// their own decoders.
type (
	plainOpacity api.OpacityResponse
	plainBatch   api.BatchResponse
)

// checkDecodesAsDecoder serves canonical, spellings of it the server
// never writes, and the extra bodies, and checks that call decodes, or
// fails, exactly as a json.Decoder of the whole body into P, T's
// method-free twin, does: a first document followed by anything is
// accepted, as it always was.
func checkDecodesAsDecoder[T, P any](t *testing.T, canonical string, extra map[string]string, call func(*client.Client) (*T, error)) {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(canonical), &v); err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{
		"canonical":        canonical,
		"trailing newline": canonical + "\n",
		"trailing garbage": canonical + "garbage",
		"two documents":    canonical + "\n" + canonical,
		"pretty-printed":   string(pretty) + "\n",
		"truncated":        canonical[:len(canonical)-2],
		"empty":            "",
	}
	maps.Copy(bodies, extra)
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body))
			}))
			defer ts.Close()
			c, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := call(c)
			var want P
			wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("client error %v, json.Decoder error %v", gotErr, wantErr)
			}
			if wantErr != nil {
				return
			}
			if w := reflect.ValueOf(want).Convert(reflect.TypeFor[T]()).Interface(); !reflect.DeepEqual(*got, w) {
				t.Fatalf("client decoded %+v, json.Decoder %+v", *got, want)
			}
		})
	}
}

func TestOpacityBodyDecodesAsDecoder(t *testing.T) {
	checkDecodesAsDecoder[api.OpacityResponse, plainOpacity](t,
		`{"l":2,"max_opacity":0.5,"types":[{"label":"P{1,2}","within":1,"total":2,"opacity":0.5},{"label":"P{2,2}","within":0,"total":1,"opacity":0}]}`,
		map[string]string{
			"escaped label": `{"l":2,"max_opacity":0,"types":[{"label":"\u003cP\u003e","within":0,"total":0,"opacity":0}]}`,
			"wrong type":    `{"l":"2","max_opacity":0.5,"types":null}`,
		},
		func(c *client.Client) (*api.OpacityResponse, error) {
			return c.Opacity(context.Background(), api.OpacityRequest{Graph: figure1(), L: 2})
		})
}

func TestBatchBodyDecodesAsDecoder(t *testing.T) {
	checkDecodesAsDecoder[api.BatchResponse, plainBatch](t,
		`{"results":[{"index":0,"op":"opacity","status":200,"cache_hit":true,"result":{"l":2,"max_opacity":0,"types":[]}},{"index":1,"op":"opacity","status":404,"error":{"code":"graph_not_found","message":"m","details":{"graph_ref":"x"}}}],"succeeded":1,"failed":1}`,
		map[string]string{
			"escaped op":        `{"results":[{"index":0,"op":"\u003cop\u003e","status":200}],"succeeded":1,"failed":0}`,
			"whitespace result": `{"results":[{"index":0,"op":"x","status":200,"result":{ "a" : 1 }}],"succeeded":1,"failed":0}`,
			"wrong type":        `{"results":[{"index":"0","op":"x","status":200}],"succeeded":1,"failed":0}`,
		},
		func(c *client.Client) (*api.BatchResponse, error) {
			return c.Batch(context.Background(), api.BatchRequest{Items: []api.BatchItem{{Op: "properties", Request: json.RawMessage(`{}`)}}})
		})
}
