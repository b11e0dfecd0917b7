package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/jobs"
)

// newTestAPI returns both the live *Server (for white-box access to
// the job pool) and an httptest server in front of it.
func newTestAPI(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, ts
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func deleteJob(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// awaitJob polls GET /v1/jobs/{id} until the job reaches want.
func awaitJob(t *testing.T, baseURL, id, want string) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		jr := decodeBody[api.JobResponse](t, resp)
		resp.Body.Close()
		if jr.State == want {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s)", id, jr.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func submitJob(t *testing.T, baseURL, op string, request any) (*http.Response, api.JobResponse) {
	t.Helper()
	raw, err := json.Marshal(request)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, baseURL+"/v1/jobs", api.JobSubmitRequest{Op: op, Request: raw})
	if resp.StatusCode != http.StatusAccepted {
		body := readBody(t, resp)
		t.Fatalf("submit %s: status %d: %s", op, resp.StatusCode, body)
	}
	return resp, decodeBody[api.JobResponse](t, resp)
}

func TestJobLifecycleSubmitPollResult(t *testing.T) {
	_, ts := newTestAPI(t, Config{})

	syncResp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: figure1(), L: 2, Cache: "off"})
	wantBody := readBody(t, syncResp)

	resp, jr := submitJob(t, ts.URL, "opacity", api.OpacityRequest{Graph: figure1(), L: 2})
	if jr.ID == "" || jr.Op != "opacity" {
		t.Fatalf("submit response %+v", jr)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+jr.ID {
		t.Fatalf("Location %q", loc)
	}
	done := awaitJob(t, ts.URL, jr.ID, "done")
	if done.Error != "" || done.CreatedAt == "" || done.StartedAt == "" || done.FinishedAt == "" {
		t.Fatalf("done job %+v", done)
	}
	// The async result is the same document the sync endpoint returns.
	if got := strings.TrimSpace(string(done.Result)); got != strings.TrimSpace(string(wantBody)) {
		t.Fatalf("async result %s\nwant %s", got, wantBody)
	}
}

func TestJobFailureSurfacesError(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	// An unknown dataset key passes validation and fails at run time.
	_, jr := submitJob(t, ts.URL, "dataset", api.DatasetRequest{Key: "no-such-dataset"})
	failed := awaitJob(t, ts.URL, jr.ID, "failed")
	if failed.Error == "" || failed.Result != nil {
		t.Fatalf("failed job %+v", failed)
	}
}

func TestJobSubmitRejectsUnknownOpAndBadRequest(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"op": "explode", "request": map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d", resp.StatusCode)
	}
	// Validation failures surface at submit time, not as failed jobs.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"op": "opacity", "request": map[string]any{"graph": map[string]any{"n": 0}, "l": 2},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid graph: status %d", resp.StatusCode)
	}
	// Unknown fields inside the embedded request are rejected too.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"op": "opacity", "request": map[string]any{"graph": figure1(), "l": 2, "typo": true},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	// Anonymize parameter validation fails fast at submit, not as a
	// failed job.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"op": "anonymize", "request": map[string]any{"graph": figure1(), "l": -5, "theta": 0.5},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative l: status %d", resp.StatusCode)
	}
}

func TestJobGetUnknownID(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// blockWorkers occupies every worker with jobs that park until the
// returned release function is called.
func blockWorkers(t *testing.T, srv *Server, workers int) (release func()) {
	t.Helper()
	releaseCh := make(chan struct{})
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		_, err := srv.jobs.Submit("block", func(ctx context.Context) (json.RawMessage, error) {
			started <- struct{}{}
			select {
			case <-releaseCh:
				return json.RawMessage(`null`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("worker never picked up blocking job")
		}
	}
	var once bool
	return func() {
		if !once {
			once = true
			close(releaseCh)
		}
	}
}

// The acceptance path: with the pool saturated, a queued job can be
// cancelled via DELETE while /healthz stays responsive throughout.
func TestCancelQueuedJobWhileHealthzResponsive(t *testing.T) {
	srv, ts := newTestAPI(t, Config{Workers: 1, QueueDepth: 8})
	release := blockWorkers(t, srv, 1)
	defer release()

	// A "large graph" job: it will sit in the queue behind the blocker.
	_, jr := submitJob(t, ts.URL, "anonymize", api.AnonymizeRequest{
		Graph: figure1(), L: 2, Theta: 0.3, Seed: 1,
	})
	if jr.State != "queued" {
		t.Fatalf("state %s, want queued", jr.State)
	}

	healthz := func() {
		t.Helper()
		hc := http.Client{Timeout: 2 * time.Second}
		resp, err := hc.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	}
	healthz()
	resp := deleteJob(t, ts.URL+"/v1/jobs/"+jr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	cancelled := decodeBody[api.JobResponse](t, resp)
	if cancelled.State != "cancelled" {
		t.Fatalf("state %s", cancelled.State)
	}
	healthz()

	// Cancelling again is a conflict, not a repeat cancellation.
	resp = deleteJob(t, ts.URL+"/v1/jobs/"+jr.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status %d", resp.StatusCode)
	}
}

func TestJobQueueFull429(t *testing.T) {
	srv, ts := newTestAPI(t, Config{Workers: 1, QueueDepth: 1})
	release := blockWorkers(t, srv, 1)
	defer release()

	_, first := submitJob(t, ts.URL, "properties", api.PropertiesRequest{Graph: figure1()})
	if first.State != "queued" {
		t.Fatalf("first state %s", first.State)
	}
	raw, _ := json.Marshal(api.PropertiesRequest{Graph: figure1()})
	resp := postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Op: "properties", Request: raw})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
}

func getStats(t *testing.T, baseURL string) api.StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	return decodeBody[api.StatsResponse](t, resp)
}

// The acceptance path: the same opacity request twice is a cache hit on
// /v1/stats and the second response is byte-identical to the first.
func TestOpacityCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	req := api.OpacityRequest{Graph: figure1(), L: 2}

	first := readBody(t, postJSON(t, ts.URL+"/v1/opacity", req))
	s := getStats(t, ts.URL)
	if s.Cache.Hits != 0 || s.Cache.Misses != 1 || s.Cache.Entries != 1 {
		t.Fatalf("stats after miss: %+v", s.Cache)
	}

	second := readBody(t, postJSON(t, ts.URL+"/v1/opacity", req))
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", first, second)
	}
	s = getStats(t, ts.URL)
	if s.Cache.Hits != 1 || s.Cache.Misses != 1 {
		t.Fatalf("stats after hit: %+v", s.Cache)
	}
}

func TestAnonymizeCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	req := api.AnonymizeRequest{Graph: figure1(), L: 1, Theta: 0.5, Seed: 7}
	first := readBody(t, postJSON(t, ts.URL+"/v1/anonymize", req))
	second := readBody(t, postJSON(t, ts.URL+"/v1/anonymize", req))
	if !bytes.Equal(first, second) {
		t.Fatalf("anonymize hit not byte-identical:\n%s\n%s", first, second)
	}
	if s := getStats(t, ts.URL); s.Cache.Hits != 1 {
		t.Fatalf("stats %+v", s.Cache)
	}
}

func TestCacheOffBypasses(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	req := api.OpacityRequest{Graph: figure1(), L: 2, Cache: "off"}
	first := readBody(t, postJSON(t, ts.URL+"/v1/opacity", req))
	second := readBody(t, postJSON(t, ts.URL+"/v1/opacity", req))
	if !bytes.Equal(first, second) {
		t.Fatal("deterministic endpoint diverged") // sanity, not cache
	}
	s := getStats(t, ts.URL)
	if s.Cache.Hits != 0 || s.Cache.Misses != 0 || s.Cache.Entries != 0 {
		t.Fatalf("cache touched despite cache:off: %+v", s.Cache)
	}

	// An invalid cache mode is a client error.
	resp := postJSON(t, ts.URL+"/v1/opacity", api.OpacityRequest{Graph: figure1(), L: 2, Cache: "maybe"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cache mode maybe: status %d", resp.StatusCode)
	}
}

// Async jobs share the same cache: a submit that matches a cached
// result is born done with cache_hit set, and a cold async run
// populates the cache for the sync path.
func TestJobsShareCacheWithSyncPath(t *testing.T) {
	_, ts := newTestAPI(t, Config{})
	req := api.OpacityRequest{Graph: figure1(), L: 3}

	_, jr := submitJob(t, ts.URL, "opacity", req)
	if jr.CacheHit {
		t.Fatal("cold submit claimed a cache hit")
	}
	done := awaitJob(t, ts.URL, jr.ID, "done")

	// Sync request now hits the entry the job stored.
	syncBody := readBody(t, postJSON(t, ts.URL+"/v1/opacity", req))
	if strings.TrimSpace(string(done.Result)) != strings.TrimSpace(string(syncBody)) {
		t.Fatalf("sync body diverges from job result")
	}
	s := getStats(t, ts.URL)
	if s.Cache.Hits != 1 {
		t.Fatalf("stats %+v", s.Cache)
	}

	// And a duplicate submit is served instantly from the cache.
	_, hit := submitJob(t, ts.URL, "opacity", req)
	if !hit.CacheHit || hit.State != "done" {
		t.Fatalf("duplicate submit %+v", hit)
	}
	if strings.TrimSpace(string(hit.Result)) != strings.TrimSpace(string(syncBody)) {
		t.Fatal("cached job result diverges")
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, ts := newTestAPI(t, Config{Workers: 2, QueueDepth: 5, CacheEntries: 10})
	s := getStats(t, ts.URL)
	if s.Jobs.Workers != 2 || s.Jobs.QueueCapacity != 5 || s.Cache.Capacity != 10 {
		t.Fatalf("stats %+v", s)
	}
	resp := postJSON(t, ts.URL+"/v1/stats", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats status %d", resp.StatusCode)
	}
}

func TestConfigValidateJobKnobs(t *testing.T) {
	for _, bad := range []Config{
		{Workers: -1},
		{QueueDepth: -1},
		{CacheEntries: -1},
		{JobTTL: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v validated", bad)
		}
	}
	if err := (Config{Workers: 2, QueueDepth: 10, CacheEntries: 50, JobTTL: time.Minute}).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// Closing the server turns new submissions into 503s while leaving
// read-only endpoints up — the drain path cmd/lopserve relies on.
func TestSubmitAfterCloseIs503(t *testing.T) {
	srv, ts := newTestAPI(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(api.PropertiesRequest{Graph: figure1()})
	resp := postJSON(t, ts.URL+"/v1/jobs", api.JobSubmitRequest{Op: "properties", Request: raw})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after close: %d", hz.StatusCode)
	}
}

// TTL eviction is visible through the REST surface: a finished job
// eventually 404s.
func TestJobTTLEvictionOverHTTP(t *testing.T) {
	clock := struct {
		mu  chan struct{} // buffered-1 as a tiny mutex
		now time.Time
	}{mu: make(chan struct{}, 1), now: time.Now()}
	clock.mu <- struct{}{}
	now := func() time.Time {
		<-clock.mu
		defer func() { clock.mu <- struct{}{} }()
		return clock.now
	}
	advance := func(d time.Duration) {
		<-clock.mu
		defer func() { clock.mu <- struct{}{} }()
		clock.now = clock.now.Add(d)
	}

	srv := New(Config{JobTTL: time.Minute})
	// Swap in a manual clock: rebuild the manager with the test hook.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.jobs.Close(ctx)
	srv.jobs = jobs.NewManager(jobs.Config{Workers: 1, TTL: time.Minute, Clock: now})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Close(ctx)
	})

	_, jr := submitJob(t, ts.URL, "properties", api.PropertiesRequest{Graph: figure1()})
	awaitJob(t, ts.URL, jr.ID, "done")
	advance(2 * time.Minute)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status %d, want 404", resp.StatusCode)
	}
}

// TestAsyncJobCountsOneCacheMiss is the stats-accounting regression
// test: one async submission of an uncached cacheable op must record
// exactly one cache miss (at submit time), not a second one when the
// worker executes — and the populated entry must then serve both
// paths.
func TestAsyncJobCountsOneCacheMiss(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := api.OpacityRequest{Graph: figure1(), L: 2}

	_, jr := submitJob(t, ts.URL, "opacity", req)
	awaitJob(t, ts.URL, jr.ID, "done")

	stats := getStats(t, ts.URL)
	if stats.Cache.Misses != 1 {
		t.Fatalf("cache misses=%d after one async job, want exactly 1", stats.Cache.Misses)
	}
	if stats.Cache.Entries != 1 {
		t.Fatalf("cache entries=%d, want 1 (the job populated the cache)", stats.Cache.Entries)
	}

	// The sync path must now hit the entry the job stored.
	resp := postJSON(t, ts.URL+"/v1/opacity", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	stats = getStats(t, ts.URL)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("hits=%d misses=%d after sync replay, want 1/1", stats.Cache.Hits, stats.Cache.Misses)
	}
}
