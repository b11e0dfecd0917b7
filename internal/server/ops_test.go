package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/api"
)

// figure1JSON is the paper's Figure 1 graph on the wire.
const figure1JSON = `{"n":7,"edges":[[0,1],[0,2],[1,2],[1,3],[1,4],[2,4],[2,5],[3,4],[4,5],[5,6]]}`

// opDocs holds one valid, self-contained request document per
// operation, in the order of the operation table.
var opDocs = []struct{ op, doc string }{
	{"properties", `{"graph":` + figure1JSON + `}`},
	{"opacity", `{"graph":` + figure1JSON + `,"l":2}`},
	{"anonymize", `{"graph":` + figure1JSON + `,"l":2,"theta":0.5,"method":"rem","seed":1}`},
	{"kiso", `{"graph":` + figure1JSON + `,"k":2,"seed":1}`},
	{"audit", `{"published":` + figure1JSON + `,"original":` + figure1JSON + `,"l":2,"theta":0.5}`},
	{"continuous_audit", `{"graph":` + figure1JSON + `,"l":2,"steps":[{"add":[[0,6]],"remove":[[5,6]]}]}`},
	{"dataset", `{"key":"gnutella100","seed":1}`},
	{"replay", `{"original":` + figure1JSON + `,"l":2,"theta":0.5,"trace":[{"step":1,"op":"remove","edges":[[1,4]]}]}`},
}

// TestOperationTableNames pins the table's names and order: opDocs
// covers every operation, and the unknown-op error lists exactly the
// table's names, in the order clients have always seen.
func TestOperationTableNames(t *testing.T) {
	want := []string{"properties", "opacity", "anonymize", "kiso", "audit", "continuous_audit", "dataset", "replay"}
	var names, docOps []string
	for _, op := range operations {
		names = append(names, op.name)
	}
	for _, d := range opDocs {
		docOps = append(docOps, d.op)
	}
	if !reflect.DeepEqual(names, want) || !reflect.DeepEqual(docOps, want) {
		t.Fatalf("table names %v, opDocs %v, want %v", names, docOps, want)
	}
	srv := New(Config{})
	t.Cleanup(func() { srv.Close(context.Background()) })
	_, err := srv.prepareItem("nope", json.RawMessage(`{}`), "")
	const msg = `unknown op "nope" (want properties, opacity, anonymize, kiso, audit, continuous_audit, dataset, or replay)`
	if err == nil || err.Error() != msg {
		t.Fatalf("unknown op error %v, want %q", err, msg)
	}
}

// TestOperationsFollowWireTable checks that the server binds a
// validator to every operation of the wire table, in table order.
func TestOperationsFollowWireTable(t *testing.T) {
	if len(operations) != len(api.Ops) {
		t.Fatalf("%d operations served, %d in api.Ops", len(operations), len(api.Ops))
	}
	for i, op := range api.Ops {
		if operations[i].name != op.Name {
			t.Fatalf("operation %d is %q, api.Ops has %q", i, operations[i].name, op.Name)
		}
	}
}

// postDoc posts a raw request document.
func postDoc(t *testing.T, url, doc string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// postBatchOf posts a one-item batch and returns its only result.
func postBatchOf(t *testing.T, baseURL, op, doc string) api.BatchItemResult {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/batch", api.BatchRequest{
		Items: []api.BatchItem{{Op: op, Request: json.RawMessage(doc)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	br := decodeBody[api.BatchResponse](t, resp)
	if len(br.Results) != 1 {
		t.Fatalf("batch answered %d results", len(br.Results))
	}
	return br.Results[0]
}

// TestEveryOpIdenticalOnEveryPath runs each operation on its sync
// route, as a batch item, and as a job. Each path gets a fresh server,
// so each computes the answer itself rather than replaying another
// path's cache entry; the bytes and the result-cache counters must
// agree.
func TestEveryOpIdenticalOnEveryPath(t *testing.T) {
	for _, d := range opDocs {
		t.Run(d.op, func(t *testing.T) {
			_, ts := newTestAPI(t, Config{})
			resp := postDoc(t, ts.URL+"/v1/"+d.op, d.doc)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sync status %d: %s", resp.StatusCode, readBody(t, resp))
			}
			syncBody := bytes.TrimSuffix(readBody(t, resp), []byte("\n"))
			syncCache := getStats(t, ts.URL).Cache

			_, ts = newTestAPI(t, Config{})
			res := postBatchOf(t, ts.URL, d.op, d.doc)
			if res.Status != http.StatusOK {
				t.Fatalf("batch item status %d: %+v", res.Status, res.Error)
			}
			batchCache := getStats(t, ts.URL).Cache

			_, ts = newTestAPI(t, Config{})
			_, jr := submitJob(t, ts.URL, d.op, json.RawMessage(d.doc))
			done := awaitJob(t, ts.URL, jr.ID, "done")
			jobCache := getStats(t, ts.URL).Cache

			if !bytes.Equal(syncBody, res.Result) || !bytes.Equal(syncBody, done.Result) {
				t.Fatalf("answers diverge:\nsync  %s\nbatch %s\njob   %s", syncBody, res.Result, done.Result)
			}
			if syncCache != batchCache || syncCache != jobCache {
				t.Fatalf("cache counters diverge: sync %+v, batch %+v, job %+v", syncCache, batchCache, jobCache)
			}
		})
	}
}

// TestEveryOpRouteRejectsEmptyDocument posts {} to each operation on
// every path. Each op route exists (no mux 404 or 405) and answers the
// error envelope, with the same status and envelope as the batch item
// and the job: {} is a 400 invalid_request on every path, rejected
// before a job is queued.
func TestEveryOpRouteRejectsEmptyDocument(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	for _, d := range opDocs {
		t.Run(d.op, func(t *testing.T) {
			wantStatus, wantCode := http.StatusBadRequest, api.CodeInvalidRequest
			resp := postDoc(t, ts.URL+"/v1/"+d.op, `{}`)
			if resp.StatusCode != wantStatus {
				t.Fatalf("sync status %d, want %d", resp.StatusCode, wantStatus)
			}
			env := decodeError(t, resp)
			if env.Err.Code != wantCode {
				t.Fatalf("sync envelope %+v, want code %s", env, wantCode)
			}

			res := postBatchOf(t, ts.URL, d.op, `{}`)
			if res.Status != wantStatus || !reflect.DeepEqual(res.Error, env.Err) {
				t.Fatalf("batch item %d %+v, want %d %+v", res.Status, res.Error, wantStatus, env.Err)
			}

			resp = postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Op: d.op, Request: json.RawMessage(`{}`)})
			if resp.StatusCode != wantStatus {
				t.Fatalf("job submit status %d, want %d", resp.StatusCode, wantStatus)
			}
			if jobEnv := decodeError(t, resp); !reflect.DeepEqual(jobEnv, env) {
				t.Fatalf("job envelope %+v, want %+v", jobEnv, env)
			}
		})
	}
}
