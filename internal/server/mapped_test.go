// Tests for the mmap-backed warm restart (-mmap-stores) and the
// registry build-timing fields of GET /v1/stats.
package server

import (
	"fmt"
	"testing"
)

// TestMappedWarmRestartZeroBuilds: with MappedStores on, a restarted
// server answers a graph_ref opacity query from the memory-mapped
// snapshot — store_misses stays 0 and the answer is byte-identical to
// the cold server's. The request explicitly asks for store=mapped to
// pin the request-level alias.
func TestMappedWarmRestartZeroBuilds(t *testing.T) {
	dir := t.TempDir()

	cold := New(Config{DataDir: dir})
	id, err := cold.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := []byte(fmt.Sprintf(`{"graph_ref":%q,"l":3,"store":"mapped","cache":"off"}`, id))
	coldAnswer := postRaw(t, cold, "/v1/opacity", req)
	if s := getStatsAPI(t, cold).Registry; s.Builds != 1 || s.BuildMSTotal < 0 || s.BuildMSMax > s.BuildMSTotal {
		t.Fatalf("cold build timing stats inconsistent: %+v", s)
	}
	closeServer(t, cold)

	warm := New(Config{DataDir: dir, MappedStores: true})
	defer closeServer(t, warm)
	warmAnswer := postRaw(t, warm, "/v1/opacity", req)
	if warmAnswer != coldAnswer {
		t.Error("opacity answer changed across a mapped restart")
	}
	s := getStatsAPI(t, warm).Registry
	if s.StoreMisses != 0 || s.Builds != 0 || s.BuildMSTotal != 0 {
		t.Errorf("mapped warm server built: misses=%d builds=%d build_ms_total=%d, want all 0",
			s.StoreMisses, s.Builds, s.BuildMSTotal)
	}
	if s.StoreHits < 1 {
		t.Errorf("mapped warm server reports %d store hits, want >= 1", s.StoreHits)
	}
}

// TestStoreMappedOnColdServer: store=mapped with nothing on disk must
// degrade gracefully — it builds the compact store it aliases.
func TestStoreMappedOnColdServer(t *testing.T) {
	srv, _ := newTestAPI(t, Config{})
	id, err := srv.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	mapped := postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2,"store":"mapped","cache":"off"}`, id)))
	compact := postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2,"store":"compact","cache":"off"}`, id)))
	if mapped != compact {
		t.Fatal("store=mapped and store=compact answers differ")
	}
	if s := getStatsAPI(t, srv).Registry; s.StoreMisses != 1 {
		t.Fatalf("the two spellings did not share one cache slot: %+v", s)
	}
}
