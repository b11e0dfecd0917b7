package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/api"
)

// readEvents consumes a full NDJSON event stream.
func readEvents(t *testing.T, url string) []api.JobEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	var events []api.JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev api.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestJobEventsLifecycle: a quick job's stream replays the full
// lifecycle in order — queued, running, done — with strictly
// increasing sequence numbers, even when the watcher attaches after
// the job finished.
func TestJobEventsLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, jr := submitJob(t, ts.URL, "properties", api.PropertiesRequest{Graph: figure1()})
	awaitJob(t, ts.URL, jr.ID, "done")

	events := readEvents(t, ts.URL+"/v1/jobs/"+jr.ID+"/events")
	var states []string
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == api.JobEventState {
			states = append(states, ev.State)
		}
	}
	want := []string{"queued", "running", "done"}
	if len(states) != len(want) {
		t.Fatalf("state events %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state events %v, want %v", states, want)
		}
	}
}

// TestJobEventsStreamProgress is the acceptance-criteria test: a
// streamed anonymize job reports at least one progress event before
// completion — progress lines appear in the stream strictly before
// the terminal state line, carrying the committed step count.
func TestJobEventsStreamProgress(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, jr := submitJob(t, ts.URL, "anonymize", api.AnonymizeRequest{
		Graph: figure1(), L: 1, Theta: 0.5, Method: "rem", Seed: 1,
	})

	// Attach immediately — the stream follows the live job and ends on
	// its terminal event, so no polling loop is needed.
	events := readEvents(t, ts.URL+"/v1/jobs/"+jr.ID+"/events")

	progress := 0
	terminalAt := -1
	for i, ev := range events {
		switch ev.Type {
		case api.JobEventProgress:
			if terminalAt >= 0 {
				t.Fatalf("progress event %d after terminal state", i)
			}
			if ev.Progress == nil {
				t.Fatalf("progress event %d missing payload", i)
			}
			if ev.Progress.Steps < 1 {
				t.Fatalf("progress event %d reports steps=%d", i, ev.Progress.Steps)
			}
			progress++
		case api.JobEventState:
			if api.JobFinished(ev.State) {
				terminalAt = i
			}
		}
	}
	if progress < 1 {
		t.Fatalf("no progress events before completion (stream: %+v)", events)
	}
	if terminalAt != len(events)-1 {
		t.Fatalf("stream did not end on the terminal state event (index %d of %d)", terminalAt, len(events))
	}
	if events[terminalAt].State != "done" {
		t.Fatalf("terminal state %q, want done", events[terminalAt].State)
	}
}

// TestJobEventsCancelMidStream: a watcher of a running job sees the
// cancelled state event arrive and the stream terminate.
func TestJobEventsCancelMidStream(t *testing.T) {
	api2, ts := newTestAPI(t, Config{Workers: 1})
	release := blockWorkers(t, api2, 1)
	defer release()

	_, jr := submitJob(t, ts.URL, "properties", api.PropertiesRequest{Graph: figure1()})

	done := make(chan []api.JobEvent, 1)
	go func() {
		done <- readEvents(t, ts.URL+"/v1/jobs/"+jr.ID+"/events")
	}()
	time.Sleep(50 * time.Millisecond) // let the watcher attach to the queued job
	deleteJob(t, ts.URL+"/v1/jobs/"+jr.ID).Body.Close()

	select {
	case events := <-done:
		last := events[len(events)-1]
		if last.Type != api.JobEventState || last.State != "cancelled" {
			t.Fatalf("last event %+v, want cancelled state", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after cancellation")
	}
}

// TestJobEventsUnknownID: an unknown job id answers a regular 404
// envelope, not a stream.
func TestJobEventsUnknownID(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	body := decodeError(t, resp)
	if body.Err.Code != api.CodeJobNotFound {
		t.Fatalf("code %q, want %q", body.Err.Code, api.CodeJobNotFound)
	}
}

// TestJobEventsCacheHitJob: a submit-time cache hit is born finished;
// its stream is exactly one done state event.
func TestJobEventsCacheHitJob(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := api.OpacityRequest{Graph: figure1(), L: 2}
	postJSON(t, ts.URL+"/v1/opacity", req) // populate the cache
	_, jr := submitJob(t, ts.URL, "opacity", req)
	if !jr.CacheHit {
		t.Fatal("expected a submit-time cache hit")
	}
	events := readEvents(t, ts.URL+"/v1/jobs/"+jr.ID+"/events")
	if len(events) != 1 || events[0].Type != api.JobEventState || events[0].State != "done" {
		t.Fatalf("cache-hit stream %+v, want exactly one done event", events)
	}
}

// newDeadlineServer serves s through an http.Server with an
// aggressively short WriteTimeout, reproducing lopserve's per-response
// write deadline at test speed.
func newDeadlineServer(t *testing.T, s *Server, timeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s, WriteTimeout: timeout}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		s.Close(context.Background())
	})
	return "http://" + ln.Addr().String()
}

// TestJobEventsOutliveWriteDeadline: the events stream clears the
// embedding server's per-response write deadline, so watching a job
// that spends longer queued+running than WriteTimeout still delivers
// the terminal event instead of a severed connection.
func TestJobEventsOutliveWriteDeadline(t *testing.T) {
	srv := New(Config{Workers: 1})
	base := newDeadlineServer(t, srv, 300*time.Millisecond)
	release := blockWorkers(t, srv, 1)
	defer release()

	_, jr := submitJob(t, base, "properties", api.PropertiesRequest{Graph: figure1()})

	done := make(chan []api.JobEvent, 1)
	go func() { done <- readEvents(t, base+"/v1/jobs/"+jr.ID+"/events") }()

	// Hold the job queued well past the write deadline, then let it run.
	time.Sleep(700 * time.Millisecond)
	release()

	select {
	case events := <-done:
		last := events[len(events)-1]
		if last.Type != api.JobEventState || last.State != "done" {
			t.Fatalf("last event %+v, want done", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream never completed")
	}
}

// TestBatchOutlivesWriteDeadline: a batch's aggregate compute may
// exceed the embedding server's single-request write deadline; the
// handler extends it to cover the accepted items.
func TestBatchOutlivesWriteDeadline(t *testing.T) {
	srv := New(Config{})
	base := newDeadlineServer(t, srv, 300*time.Millisecond)

	// A hard instance that reliably burns its 700ms budget.
	g := api.Graph{N: 60}
	for i := 0; i < 60; i++ {
		for j := i + 1; j < i+5 && j < 60; j++ {
			g.Edges = append(g.Edges, [2]int{i, j})
		}
	}
	item, err := json.Marshal(api.AnonymizeRequest{
		Graph: g, L: 2, Theta: 0.001, Method: "rem", BudgetMS: 700, Cache: "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, base+"/v1/batch", api.BatchRequest{
		Items: []api.BatchItem{{Op: "anonymize", Request: item}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := decodeBody[api.BatchResponse](t, resp)
	if br.Succeeded != 1 {
		t.Fatalf("batch result %+v, want the long item to succeed", br)
	}
}
