// The operation table: every POST operation of the wire table api.Ops,
// bound to its validator.
//
// Each operation is validated into a "prepared" form: cheap checks up
// front (bad requests fail fast with a 400 on every path), then a run
// closure that does the heavy work. One table entry yields the
// operation's synchronous route (POST /v1/<name>), its form as a
// POST /v1/batch item and as a POST /v1/jobs submission, and its name
// in the unknown-op error, so every path shares one implementation,
// one result cache and one set of counters.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	lopacity "repro"
	"repro/api"
	"repro/internal/apsp"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// operations binds each operation of the wire table, api.Ops, to the
// validator of its request type, in table order.
var operations = []operation{
	newOp((*Server).prepareProperties),
	newOp((*Server).prepareOpacity),
	newOp((*Server).prepareAnonymize),
	newOp((*Server).prepareKIso),
	newOp((*Server).prepareAudit),
	newOp((*Server).prepareContinuousAudit),
	newOp((*Server).prepareDataset),
	newOp((*Server).prepareReplay),
}

// operation is one entry of the table: an api.Ops entry and the
// validator of its request type.
type operation struct {
	name    string
	wire    api.Op
	prepare func(s *Server, req api.Request) (prepared, error)
}

// newOp binds the validator of request type R to its api.Ops entry.
func newOp[R api.Request](prep func(*Server, R) (prepared, error)) operation {
	for _, wire := range api.Ops {
		if _, ok := wire.New().(R); ok {
			return operation{name: wire.Name, wire: wire, prepare: func(s *Server, req api.Request) (prepared, error) {
				p, err := prep(s, req.(R))
				p.op = wire.Name
				return p, err
			}}
		}
	}
	panic(fmt.Sprintf("server: %T is not the request type of an api.Ops entry", *new(R)))
}

// serve answers POST /v1/<name>, whose body is the request document.
func (op operation) serve(s *Server, w http.ResponseWriter, r *http.Request) {
	req := op.wire.New()
	if !s.decode(w, r, req) {
		return
	}
	p, err := op.prepare(s, req)
	var b json.RawMessage
	if err == nil {
		b, _, err = s.runPrepared(r.Context(), p)
	}
	if err != nil {
		writeError(w, errStatus(err, http.StatusBadRequest), err)
		return
	}
	writeRawJSON(w, b)
}

// prepareItem validates the request document of a batch item or job
// against the operation it names. sharedRef is the batch's graph_ref,
// "" for a job.
func (s *Server) prepareItem(name string, raw json.RawMessage, sharedRef string) (prepared, error) {
	for _, op := range operations {
		if op.name == name {
			req := op.wire.New()
			if err := decodeStrict(raw, req); err != nil {
				return prepared{}, err
			}
			// An item's own inline graph or reference always wins;
			// conflicts between its forms are still rejected by
			// resolveGraph.
			op.wire.InheritGraphRef(req, sharedRef)
			return op.prepare(s, req)
		}
	}
	names := make([]string, len(operations))
	for i, op := range operations {
		names[i] = op.name
	}
	last := len(names) - 1
	return prepared{}, fmt.Errorf("unknown op %q (want %s, or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// prepared is one validated operation, ready to execute inline or on
// the worker pool.
type prepared struct {
	// op names the operation ("opacity", "anonymize", ...).
	op string
	// cached marks a run whose answer is memoized under key: opacity
	// and anonymize, the expensive, frequently replayed operations,
	// unless the request opts out with "cache":"off".
	cached bool
	key    jobs.Key
	// run computes the response value; the bool reports whether the
	// result may be stored in the cache (false for timed-out
	// anonymization runs, whose output depends on scheduling luck).
	// Run errors carry their HTTP status and error code by wrapping
	// with codedError; unwrapped errors default to 400.
	run func(ctx context.Context) (any, bool, error)
}

// runPrepared answers a validated operation from the result cache, or
// computes it. The synchronous routes and the batch endpoint share it,
// so cache hits are byte-for-byte identical everywhere: the stored body
// is the exact marshaled response the miss that populated it produced.
// (The async path looks up at submit time and computes on the pool —
// see handleJobSubmit — so one job never counts two lookups.)
func (s *Server) runPrepared(ctx context.Context, p prepared) (body json.RawMessage, cacheHit bool, err error) {
	if b, ok := s.lookup(p); ok {
		return b, true, nil
	}
	b, err := s.compute(ctx, p)
	return b, false, err
}

// lookup returns the stored answer of a cached operation.
func (s *Server) lookup(p prepared) (json.RawMessage, bool) {
	if !p.cached {
		return nil, false
	}
	return s.cache.Get(p.key)
}

// compute runs a validated operation and marshals its answer, storing
// it when the operation is cached and the run says it may be.
func (s *Server) compute(ctx context.Context, p prepared) (json.RawMessage, error) {
	v, storable, err := p.run(ctx)
	if err != nil {
		return nil, err
	}
	b, err := marshalResult(v)
	if err != nil {
		return nil, codedError(http.StatusInternalServerError, api.CodeInternal, err)
	}
	if p.cached && storable {
		s.cache.Put(p.key, b)
	}
	return b, nil
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

// checkL rejects a linkage threshold outside [1, apsp.MaxL]; beyond
// MaxL the sentinel L+1 would overflow a store cell.
func checkL(l int) error {
	if l < 1 {
		return fmt.Errorf("l must be >= 1, got %d", l)
	}
	if l > apsp.MaxL {
		return fmt.Errorf("l must be <= %d, got %d", apsp.MaxL, l)
	}
	return nil
}

// checkTheta rejects a privacy threshold outside [0, 1].
func checkTheta(theta float64) error {
	if theta < 0 || theta > 1 {
		return fmt.Errorf("theta %v outside [0, 1]", theta)
	}
	return nil
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

// resultKey names a cached answer by its operation, its input graph's
// content address, and every parameter that steers the run. The
// address is the registry's id on the ref path and the same digest of
// the canonical edge set inline, so both spellings of one graph share
// one cache slot.
func resultKey(op string, g *lopacity.Graph, ent *registry.Graph, params any) (jobs.Key, error) {
	var id string
	if ent != nil {
		id = ent.ID()
	} else {
		id = registry.Digest(g.N(), g.Edges())
	}
	return jobs.HashJSON(struct {
		Op     string `json:"op"`
		Graph  string `json:"graph"`
		Params any    `json:"params"`
	}{op, id, params})
}

// progressMinGap throttles the job event stream: progress reports
// arriving faster than this are dropped (annealing accepts thousands
// of moves per second). The FIRST report always goes through, so even
// a one-step run emits at least one progress event before finishing.
const progressMinGap = 50 * time.Millisecond

// progressPublisher adapts a job's progress reporter to a throttled
// publisher of api.JobProgress values; a nil reporter (a synchronous
// run) publishes nothing. Callers invoke it from the computation's own
// goroutine, strictly sequentially, so the throttle state needs no
// lock.
func progressPublisher(report func(json.RawMessage)) func(api.JobProgress) {
	var last time.Time
	return func(p api.JobProgress) {
		now := time.Now()
		if report == nil || !last.IsZero() && now.Sub(last) < progressMinGap {
			return
		}
		last = now
		if b, err := json.Marshal(p); err == nil {
			report(b)
		}
	}
}
