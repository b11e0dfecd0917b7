// Async job endpoints and the shared cached-execution path.
//
// Every POST operation is refactored into a "prepared" form: cheap
// validation up front (bad requests fail fast with a 400, on the sync
// and async paths alike), then a run closure that does the heavy work.
// The synchronous handlers execute the closure inline via serveSync,
// POST /v1/batch runs a list of them with per-item isolation, and
// POST /v1/jobs hands the identical closure to the jobs.Manager worker
// pool — every path shares one implementation, one result cache, and
// one set of counters through runPrepared.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/api"
	"repro/internal/apsp"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// prepared is one validated operation, ready to execute inline or on
// the worker pool.
type prepared struct {
	// op names the operation ("opacity", "anonymize", ...).
	op string
	// key is the content address of the result; meaningful only when
	// cacheable is set.
	key jobs.Key
	// cacheable marks operations whose results are memoized (opacity
	// and anonymize — the expensive, frequently replayed ones).
	cacheable bool
	// cacheOff records the request's "cache":"off" escape hatch: skip
	// both the lookup and the store for this request.
	cacheOff bool
	// run computes the response value; the bool reports whether the
	// result may be stored in the cache (false for timed-out
	// anonymization runs, whose output depends on scheduling luck).
	// Run errors carry their HTTP status and error code by wrapping
	// with codedError; unwrapped errors default to 400.
	run func(ctx context.Context) (any, bool, error)
}

// validateHints rejects unknown engine and store names with a 400. A
// valid name is only a hint: every engine and backing yields the same
// store, whose identity is (graph, L), so neither the result-cache key
// nor the registry's store slot depends on it.
func validateHints(engine, store string) error {
	if _, err := apsp.ParseEngine(engine); err != nil {
		return err
	}
	_, err := apsp.ParseKind(store)
	return err
}

// parseCacheMode interprets the per-request cache field: "" and "on"
// use the cache, "off" bypasses it, anything else is a client error.
func parseCacheMode(mode string) (off bool, err error) {
	switch mode {
	case "", "on":
		return false, nil
	case "off":
		return true, nil
	}
	return false, fmt.Errorf("unknown cache mode %q (want on or off)", mode)
}

// runPrepared executes a validated operation: consult the result cache
// when the operation is cacheable, run, marshal, store. The synchronous
// handlers and the batch endpoint share it, so cache hits are
// byte-for-byte identical everywhere: the stored body is the exact
// marshaled response the miss that populated it produced. (The async
// path consults the cache at submit time instead — see handleJobSubmit
// — so one job never counts two lookups.)
func (s *Server) runPrepared(ctx context.Context, p prepared) (body json.RawMessage, cacheHit bool, err error) {
	useCache := p.cacheable && !p.cacheOff
	if useCache {
		if b, ok := s.cache.Get(p.key); ok {
			return b, true, nil
		}
	}
	v, storable, err := p.run(ctx)
	if err != nil {
		return nil, false, err
	}
	b, err := marshalResult(v)
	if err != nil {
		return nil, false, codedError(http.StatusInternalServerError, api.CodeInternal, err)
	}
	if useCache && storable {
		s.cache.Put(p.key, b)
	}
	return b, false, nil
}

// marshalResult encodes an operation's response value. A response
// type with its own codec (api.OpacityResponse) writes compact, escaped
// JSON itself, so it is called directly: json.Marshal would only re-scan
// its output to compact and escape it again, and that scan of a large
// opacity answer costs as much as the encoding. The bytes are the same
// either way.
func marshalResult(v any) ([]byte, error) {
	if m, ok := v.(json.Marshaler); ok {
		return m.MarshalJSON()
	}
	return json.Marshal(v)
}

// serveSync executes a prepared operation inline and writes the
// response, newline-terminated on the wire just as json.Encoder would
// have produced (cache hits replay the stored bytes exactly).
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, p prepared) {
	b, _, err := s.runPrepared(r.Context(), p)
	if err != nil {
		writeError(w, errStatus(err, http.StatusBadRequest), err)
		return
	}
	writeRawJSON(w, b)
}

// prepare dispatches an operation name and raw request document to the
// per-operation validators; POST /v1/jobs and the job-shaped callers
// use it without a shared graph reference.
func (s *Server) prepare(op string, raw json.RawMessage) (prepared, error) {
	return s.prepareItem(op, raw, "")
}

// prepareItem is prepare with the batch endpoint's shared graph
// reference: when sharedRef is non-empty and the decoded item is a
// single-graph operation that names no graph of its own, the shared
// reference is injected before validation. Operations with two graph
// inputs (audit, replay) and dataset generation never inherit the
// shared reference — their items must be self-contained.
func (s *Server) prepareItem(op string, raw json.RawMessage, sharedRef string) (prepared, error) {
	switch op {
	case "properties":
		var req api.PropertiesRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		injectRef(&req.GraphRef, req.Graph, sharedRef)
		return s.prepareProperties(&req)
	case "opacity":
		var req api.OpacityRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		injectRef(&req.GraphRef, req.Graph, sharedRef)
		return s.prepareOpacity(&req)
	case "anonymize":
		var req api.AnonymizeRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		injectRef(&req.GraphRef, req.Graph, sharedRef)
		return s.prepareAnonymize(&req)
	case "kiso":
		var req api.KIsoRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		injectRef(&req.GraphRef, req.Graph, sharedRef)
		return s.prepareKIso(&req)
	case "audit":
		var req api.AuditRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		return s.prepareAudit(&req)
	case "continuous_audit":
		var req api.ContinuousAuditRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		injectRef(&req.GraphRef, req.Graph, sharedRef)
		return s.prepareContinuousAudit(&req)
	case "dataset":
		var req api.DatasetRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		return s.prepareDataset(&req)
	case "replay":
		var req api.ReplayRequest
		if err := decodeStrict(raw, &req); err != nil {
			return prepared{}, err
		}
		return s.prepareReplay(&req)
	}
	return prepared{}, fmt.Errorf("unknown op %q (want properties, opacity, anonymize, kiso, audit, continuous_audit, dataset, or replay)", op)
}

// injectRef applies the batch-level shared graph reference to a
// single-graph request that names no graph of its own. An item that
// carries an inline graph or its own reference always wins; conflicts
// between the winner's forms are still rejected by resolveGraph.
func injectRef(ref *string, g api.Graph, sharedRef string) {
	if sharedRef != "" && *ref == "" && g.N == 0 && len(g.Edges) == 0 {
		*ref = sharedRef
	}
}

// decodeStrict unmarshals an embedded request document with the same
// unknown-field and trailing-data rejection the top-level decoder
// applies.
func decodeStrict(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return errors.New("missing request document")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request document: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid request document: trailing data after JSON document")
	}
	return nil
}

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
	p, err := s.prepare(req.Op, req.Request)
	if err != nil {
		writeError(w, errStatus(err, http.StatusBadRequest), err)
		return
	}
	// The submitting request's ID rides on the job: it comes back on
	// the submit response, every poll, and every line of the event
	// stream, so an async run is traceable to the request (and
	// access-log line) that started it.
	rid := obs.RequestIDFrom(r.Context())
	useCache := p.cacheable && !p.cacheOff
	if useCache {
		if b, ok := s.cache.Get(p.key); ok {
			j, err := s.jobs.SubmitDone(p.op, b, jobs.WithRequestID(rid))
			if err != nil {
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
			writeJob(w, http.StatusAccepted, j)
			return
		}
	}
	task := func(ctx context.Context) (json.RawMessage, error) {
		// No second cache lookup here: the submit-time Get above already
		// decided this job is a miss, and re-consulting at run time would
		// double-count misses in /v1/stats for every async request. The
		// run still populates the cache for everyone after it.
		v, storable, err := p.run(ctx)
		if err != nil {
			return nil, err
		}
		b, err := marshalResult(v)
		if err != nil {
			return nil, err
		}
		if useCache && storable {
			s.cache.Put(p.key, b)
		}
		return b, nil
	}
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
