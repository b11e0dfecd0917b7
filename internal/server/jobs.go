// Async job endpoints: POST /v1/jobs runs any operation of the table
// (see ops.go) on the jobs.Manager worker pool; GET and DELETE on
// /v1/jobs/{id} poll and cancel it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/api"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// jobResponse converts a job snapshot to its wire form.
func jobResponse(j jobs.Job) api.JobResponse {
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	return api.JobResponse{
		ID: j.ID, Op: j.Op, RequestID: j.RequestID,
		State: string(j.State), CacheHit: j.CacheHit,
		CreatedAt: stamp(j.Created), StartedAt: stamp(j.Started),
		FinishedAt: stamp(j.Finished), Error: j.Error, Result: j.Result,
	}
}

// handleJobSubmit is POST /v1/jobs: validate synchronously, then either
// answer from the cache (the job is born finished) or enqueue the work.
// A full queue is a 429 so load-shedding is visible to clients; a
// closing server is a 503.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobSubmitRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, err := s.prepareItem(req.Op, req.Request, "")
	if err != nil {
		writeError(w, errStatus(err, http.StatusBadRequest), err)
		return
	}
	// The submitting request's ID rides on the job: it comes back on
	// the submit response, every poll, and every line of the event
	// stream, so an async run is traceable to the request (and
	// access-log line) that started it.
	rid := obs.RequestIDFrom(r.Context())
	if b, ok := s.lookup(p); ok {
		j, err := s.jobs.SubmitDone(p.op, b, jobs.WithRequestID(rid))
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJob(w, http.StatusAccepted, j)
		return
	}
	// No second cache lookup in the task: the submit-time lookup above
	// already decided this job is a miss, and re-consulting at run time
	// would double-count misses in /v1/stats for every async request.
	// The run still populates the cache for everyone after it.
	task := func(ctx context.Context) (json.RawMessage, error) { return s.compute(ctx, p) }
	j, err := s.jobs.Submit(p.op, task, jobs.WithRequestID(rid))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests,
			detailedError(http.StatusTooManyRequests, api.CodeQueueFull,
				map[string]any{"queue_capacity": s.jobs.QueueCapacity()}, err))
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJob(w, http.StatusAccepted, j)
}

func writeJob(w http.ResponseWriter, status int, j jobs.Job) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(jobResponse(j))
}

// jobNotFound is the one 404 every job id miss maps to.
func jobNotFound(id string) error {
	return detailedError(http.StatusNotFound, api.CodeJobNotFound,
		map[string]any{"id": id},
		fmt.Errorf("no job %q (unknown id, or evicted after its TTL)", id))
}

// handleJobByID serves GET (poll) and DELETE (cancel) on /v1/jobs/{id}.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		j, ok := s.jobs.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, jobNotFound(id))
			return
		}
		writeJSON(w, jobResponse(j))
	case http.MethodDelete:
		j, err := s.jobs.Cancel(id)
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			writeError(w, http.StatusNotFound, jobNotFound(id))
		case errors.Is(err, jobs.ErrFinished):
			writeError(w, http.StatusConflict,
				detailedError(http.StatusConflict, api.CodeJobFinished,
					map[string]any{"id": id, "state": string(j.State)},
					fmt.Errorf("job %q already finished (%s)", id, j.State)))
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, jobResponse(j))
		}
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodDelete)
	}
}
