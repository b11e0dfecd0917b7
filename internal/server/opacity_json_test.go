package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"repro/api"
	"repro/internal/gen"
	"repro/internal/opacity"
)

// plainOpacity is api.OpacityResponse without its codec, so
// json.Marshal encodes it by reflection: the reference every opacity
// body must equal byte for byte.
type plainOpacity api.OpacityResponse

// TestOpacityBodiesMatchEncodingJSON checks that the synchronous body,
// a batch item and an async job result for a web-RMAT graph are
// exactly json.Marshal's encoding of the library's answer (plus the
// newline json.Encoder ends a body with), on both the inline and the
// registry path.
func TestOpacityBodiesMatchEncodingJSON(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.WebRMAT(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	wire := api.Graph{N: g.N()}
	for _, e := range g.Edges() {
		wire.Edges = append(wire.Edges, [2]int{e.U, e.V})
	}
	_, ts := newTestAPI(t, Config{})
	id := registerGraph(t, ts.URL, wire)
	for _, L := range []int{2, 3} {
		t.Run("l="+strconv.Itoa(L), func(t *testing.T) {
			rep := opacity.NewReport(g, nil, L)
			want := plainOpacity{L: L, MaxOpacity: rep.MaxLO}
			for _, r := range rep.ByType {
				want.Types = append(want.Types, api.OpacityType{Label: r.Label, Within: r.Within, Total: r.Total, Opacity: r.Opacity})
			}
			if len(want.Types) < 100 {
				t.Fatalf("only %d types; the graph should give hundreds", len(want.Types))
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got []byte) {
				t.Helper()
				if string(got) != string(wantBody) {
					t.Errorf("%s differs from json.Marshal (%d vs %d bytes)", what, len(got), len(wantBody))
				}
			}

			inline := api.OpacityRequest{Graph: wire, L: L, Cache: "off"}
			byRef := api.OpacityRequest{GraphRef: id, L: L, Cache: "off"}
			for name, req := range map[string]api.OpacityRequest{"inline": inline, "graph_ref": byRef} {
				resp := postJSON(t, ts.URL+"/v1/opacity", req)
				body := readBody(t, resp)
				if resp.StatusCode != http.StatusOK || len(body) == 0 || body[len(body)-1] != '\n' {
					t.Fatalf("%s: status %d, body %.80q", name, resp.StatusCode, body)
				}
				check(name+" /v1/opacity body", body[:len(body)-1])
			}

			resp := postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{Items: []api.BatchItem{
				batchItem(t, "opacity", inline), batchItem(t, "opacity", byRef),
			}})
			br := decodeBody[api.BatchResponse](t, resp)
			for _, item := range br.Results {
				if item.Status != http.StatusOK {
					t.Fatalf("batch item %d: status %d, error %v", item.Index, item.Status, item.Error)
				}
				check("batch item "+strconv.Itoa(item.Index), item.Result)
			}

			_, jr := submitJob(t, ts.URL, "opacity", inline)
			check("async job result", awaitJob(t, ts.URL, jr.ID, "done").Result)
		})
	}
}
