// Tests for the paged-store serving mode (-paged-stores,
// -store-budget-bytes): warm restarts under a page budget, the
// store=paged request alias, and the byte gauges on /v1/stats and
// /metrics.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPagedWarmRestartZeroBuilds: with PagedStores on, a restarted
// server answers a graph_ref opacity query through the page cache —
// store_misses and builds stay 0 and the answer is byte-identical to
// the cold server's. The request pins the store=paged alias.
func TestPagedWarmRestartZeroBuilds(t *testing.T) {
	dir := t.TempDir()

	cold := New(Config{DataDir: dir})
	id, err := cold.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := []byte(fmt.Sprintf(`{"graph_ref":%q,"l":3,"store":"paged","cache":"off"}`, id))
	coldAnswer := postRaw(t, cold, "/v1/opacity", req)
	closeServer(t, cold)

	warm := New(Config{DataDir: dir, PagedStores: true, StoreBudgetBytes: 1 << 20})
	defer closeServer(t, warm)
	warmAnswer := postRaw(t, warm, "/v1/opacity", req)
	if warmAnswer != coldAnswer {
		t.Error("opacity answer changed across a paged restart")
	}
	s := getStatsAPI(t, warm).Registry
	if s.StoreMisses != 0 || s.Builds != 0 {
		t.Errorf("paged warm server built: misses=%d builds=%d, want 0/0", s.StoreMisses, s.Builds)
	}
	if s.StoreHits < 1 {
		t.Errorf("paged warm server reports %d store hits, want >= 1", s.StoreHits)
	}
	if s.PageCache.BudgetBytes != 1<<20 {
		t.Errorf("page_cache.budget_bytes = %d, want %d", s.PageCache.BudgetBytes, 1<<20)
	}
	if s.PageCache.Misses < 1 || s.PageCache.ResidentBytes < 1 {
		t.Errorf("page cache saw no traffic serving the query: %+v", s.PageCache)
	}
	if s.PageCache.ResidentBytes > s.PageCache.BudgetBytes {
		t.Errorf("resident %d bytes exceeds budget %d", s.PageCache.ResidentBytes, s.PageCache.BudgetBytes)
	}
	if fb := s.StoreFileBytes["paged"]; fb <= 0 {
		t.Errorf("store_file_bytes[paged] = %d, want > 0", fb)
	}
}

// TestStorePagedOnColdServer: store=paged with no paged config must
// degrade gracefully — it aliases to compact and shares its slot.
func TestStorePagedOnColdServer(t *testing.T) {
	srv, _ := newTestAPI(t, Config{})
	id, err := srv.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	paged := postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2,"store":"paged","cache":"off"}`, id)))
	compact := postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2,"store":"compact","cache":"off"}`, id)))
	if paged != compact {
		t.Fatal("store=paged and store=compact answers differ")
	}
	if s := getStatsAPI(t, srv).Registry; s.StoreMisses != 1 {
		t.Fatalf("the two spellings did not share one cache slot: %+v", s)
	}
}

// TestPagedBuildThroughServesFromFile: a COLD paged server (empty data
// dir) builds through to the snapshot file and serves the result as a
// paged view immediately — store_bytes shows the budget-bounded "paged"
// residency, not a heap triangle.
func TestPagedBuildThroughServesFromFile(t *testing.T) {
	srv, _ := newTestAPI(t, Config{DataDir: t.TempDir(), PagedStores: true, StoreBudgetBytes: 1 << 20})
	id, err := srv.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2,"cache":"off"}`, id)))
	s := getStatsAPI(t, srv)
	if s.Registry.Builds != 1 {
		t.Fatalf("builds = %d, want 1", s.Registry.Builds)
	}
	if hb, ok := s.Registry.StoreBytes["compact"]; ok && hb > 0 {
		t.Errorf("cold paged build left a %d-byte heap triangle", hb)
	}
	if fb := s.Registry.StoreFileBytes["paged"]; fb <= 0 {
		t.Errorf("store_file_bytes[paged] = %d after build-through, want > 0", fb)
	}
	if s.Persistence.StoreWrites != 1 {
		t.Errorf("store_writes = %d, want 1 (the streamed snapshot)", s.Persistence.StoreWrites)
	}
}

// TestMetricsExposesStoreGauges: the /metrics exposition carries the
// per-backing footprint gauges and the page-cache series.
func TestMetricsExposesStoreGauges(t *testing.T) {
	srv, _ := newTestAPI(t, Config{DataDir: t.TempDir(), PagedStores: true, StoreBudgetBytes: 1 << 20})
	id, err := srv.RegisterDataset("gnutella100", 1)
	if err != nil {
		t.Fatal(err)
	}
	postRaw(t, srv, "/v1/opacity", []byte(fmt.Sprintf(`{"graph_ref":%q,"l":2,"cache":"off"}`, id)))

	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, w := range []string{
		`lopserve_store_bytes{kind="paged"}`,
		`lopserve_store_file_bytes{kind="paged"}`,
		"lopserve_store_page_cache_budget_bytes",
		"lopserve_store_page_cache_resident_bytes",
		"lopserve_store_page_cache_misses",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
}
