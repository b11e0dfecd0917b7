package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/api"
)

// engineHints and storeHints are every name the wire accepts for the
// two build hints.
var (
	engineHints = []string{"", "auto", "bfs", "fw", "pointer", "bitbfs"}
	storeHints  = []string{"", "compact", "packed", "mapped", "mmap", "paged"}
)

// TestOpacityEngineStoreKnobs: every engine/store hint a client can
// send is accepted and returns the identical opacity report.
func TestOpacityEngineStoreKnobs(t *testing.T) {
	ts := newTestServer(t, Config{})

	var ref api.OpacityResponse
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: figure1(), L: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default knobs: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}

	for _, engine := range engineHints {
		for _, store := range storeHints {
			resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{
				Graph: figure1(), L: 2, Engine: engine, Store: store, Cache: "off",
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("engine=%s store=%s: status %d", engine, store, resp.StatusCode)
			}
			var got api.OpacityResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("engine=%s store=%s: report differs from default", engine, store)
			}
		}
	}
}

func TestOpacityRejectsUnknownEngineAndStore(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, req := range []api.OpacityRequest{
		{Graph: figure1(), L: 1, Engine: "dijkstra"},
		{Graph: figure1(), L: 1, Store: "sparse"},
	} {
		resp := postJSON(t, ts.URL+"/v1/opacity", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("engine=%q store=%q: status %d, want 400", req.Engine, req.Store, resp.StatusCode)
		}
	}
}

// TestAnonymizeStoreInvariant: the same anonymize request produces the
// same published graph whatever store hint it carries.
func TestAnonymizeStoreInvariant(t *testing.T) {
	ts := newTestServer(t, Config{})
	var runs []api.AnonymizeResponse
	for _, store := range []string{"compact", "packed"} {
		resp := postJSON(t, ts.URL+"/v1/anonymize", api.AnonymizeRequest{
			Graph: figure1(), L: 2, Theta: 0.5, Method: "rem-ins", Seed: 11, Store: store, Cache: "off",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("store=%s: status %d", store, resp.StatusCode)
		}
		var out api.AnonymizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("anonymize diverges across stores:\ncompact: %+v\npacked:  %+v", runs[0], runs[1])
	}
}

// TestOneStoreIdentityAcrossHints: a store is identified by (graph, L).
// Opacity and anonymize requests for one registered graph and one L,
// carrying every engine hint crossed with every store hint, get
// byte-identical bodies from one store build and one result-cache
// entry per op.
func TestOneStoreIdentityAcrossHints(t *testing.T) {
	srv, ts := newTestAPI(t, Config{})
	id := registerGraph(t, ts.URL, figure1())
	for _, op := range []string{"opacity", "anonymize"} {
		var first []byte
		for _, engine := range engineHints[1:] {
			for _, store := range storeHints[1:] {
				var req any = api.OpacityRequest{GraphRef: id, L: 2, Engine: engine, Store: store}
				if op == "anonymize" {
					req = api.AnonymizeRequest{GraphRef: id, L: 2, Theta: 0.5, Seed: 3, Engine: engine, Store: store}
				}
				resp := postJSON(t, ts.URL+"/v1/"+op, req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s engine=%s store=%s: status %d", op, engine, store, resp.StatusCode)
				}
				body := readBody(t, resp)
				if first == nil {
					first = body
				} else if !bytes.Equal(body, first) {
					t.Fatalf("%s engine=%s store=%s: body differs from the first hint's", op, engine, store)
				}
			}
		}
	}
	s := getStats(t, ts.URL)
	if s.Registry.StoreMisses != 1 {
		t.Fatalf("store_misses=%d, want 1", s.Registry.StoreMisses)
	}
	ent, ok := srv.reg.Get(id)
	if !ok {
		t.Fatal("registered graph missing")
	}
	if n := ent.StoreCount(); n != 1 {
		t.Fatalf("graph holds %d cached stores, want 1", n)
	}
	if s.Cache.Entries != 2 || s.Cache.Misses != 2 {
		t.Fatalf("result cache %+v, want one entry and one miss per op", s.Cache)
	}
}

// TestConfigValidateRejectsBadDefaults: a misconfigured server must
// fail at startup, not per request.
func TestConfigValidateRejectsBadDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	for _, cfg := range []Config{{CacheEntries: -1}, {MaxBatchItems: -1}} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v passed validation", cfg)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
