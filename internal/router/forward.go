// The forwarding core: buffer the request, pick the candidate order,
// walk it with failover on transport errors, and — for graph-addressed
// requests — heal a cold owner by hydrating the graph from a donor
// peer before giving up on a graph_not_found.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"repro/api"
	"repro/internal/obs"
	"repro/internal/registry"
)

// maxResponseBytes caps a buffered upstream response. Snapshot
// envelopes are the largest legitimate payload, so the cap is theirs.
const maxResponseBytes = registry.MaxSnapshotBytes

// proxied is one completed upstream exchange: the response (body
// already read and closed) and the peer that produced it.
type proxied struct {
	resp *http.Response
	body []byte
	peer string
}

// requestURI returns the path+query to replay against a peer.
func requestURI(r *http.Request) string {
	uri := r.URL.Path
	if r.URL.RawQuery != "" {
		uri += "?" + r.URL.RawQuery
	}
	return uri
}

// postBody buffers the body of a POST; any other method is a 405. On
// failure it has already written the error response.
func (rt *Router) postBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return nil, false
	}
	return rt.readBody(w, r)
}

// readBody buffers the request body under the configured cap; a GET
// or HEAD has none. On failure it has already written the error
// response.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorCode(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes), nil)
		} else {
			writeErrorCode(w, http.StatusBadRequest, api.CodeInvalidRequest,
				"reading request body: "+err.Error(), nil)
		}
		return nil, false
	}
	return body, true
}

// send performs one exchange with one peer, relaying the caller's
// identity headers and the request ID minted (or accepted) by the
// router's own middleware, so one X-Request-ID names the request in
// both processes' logs. The response body is NOT read.
func (rt *Router) send(ctx context.Context, peer, method, uri string, hdr http.Header, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+uri, rd)
	if err != nil {
		return nil, err
	}
	if ct := hdr.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if auth := hdr.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	}
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	st := rt.peers[peer]
	resp, err := rt.httpc.Do(req)
	if err != nil {
		st.errors.Add(1)
		rt.gauges.peerErrors.With(peer).Inc()
		healthy := st.markFailure(err, rt.cfg.FailAfter)
		if !healthy {
			rt.gauges.peerHealthy.With(peer).Set(0)
		}
		return nil, err
	}
	st.requests.Add(1)
	st.markSuccess()
	rt.gauges.peerHealthy.With(peer).Set(1)
	rt.countResponse(peer, resp.StatusCode)
	return resp, nil
}

// exchange is send plus a bounded body read.
func (rt *Router) exchange(ctx context.Context, peer, method, uri string, hdr http.Header, body []byte) (*proxied, error) {
	resp, err := rt.send(ctx, peer, method, uri, hdr, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(respBody) > maxResponseBytes {
		return nil, fmt.Errorf("router: response from %s exceeds %d bytes", peer, int64(maxResponseBytes))
	}
	return &proxied{resp: resp, body: respBody, peer: peer}, nil
}

// candidateOrder returns the peers to try for key: the ring's
// deterministic candidate sequence, healthy peers first. Ejected peers
// stay in the list (last) — a stale health verdict must not turn into
// a 502 while a peer is actually serving.
func (rt *Router) candidateOrder(key string) []string {
	seq := rt.ring.Candidates(key)
	out := make([]string, 0, len(seq))
	var down []string
	for _, p := range seq {
		if rt.peers[p].isHealthy() {
			out = append(out, p)
		} else {
			down = append(down, p)
		}
	}
	return append(out, down...)
}

var rrCounter atomic.Uint64

// anyPeerOrder returns all peers, healthy first, rotated so unkeyed
// traffic spreads across the tier instead of hammering the first
// member.
func (rt *Router) anyPeerOrder() []string {
	healthy := rt.healthyPeers()
	if n := len(healthy); n > 1 {
		off := int(rrCounter.Add(1)) % n
		rot := make([]string, 0, n)
		rot = append(rot, healthy[off:]...)
		rot = append(rot, healthy[:off]...)
		healthy = rot
	}
	for _, p := range rt.order {
		if !rt.peers[p].isHealthy() {
			healthy = append(healthy, p)
		}
	}
	return healthy
}

// proxyOpts shapes one forwarded request.
type proxyOpts struct {
	method string
	uri    string
	header http.Header
	body   []byte // nil for bodyless methods
	route
}

// proxy walks the candidate order for opts.key until some peer
// answers, failing over on transport errors and counting each hop
// against the abandoned peer. A 404 graph_not_found answer, which
// only a request naming a graph reference gets, triggers snapshot
// hydration from a donor peer and one retry per missing reference (two
// rounds covers an audit pair). Returns nil when every candidate is
// unreachable.
func (rt *Router) proxy(ctx context.Context, opts proxyOpts) (*proxied, error) {
	var candidates []string
	if opts.key != "" {
		candidates = rt.candidateOrder(opts.key)
	} else {
		candidates = rt.anyPeerOrder()
	}
	var lastErr error
	for i, peer := range candidates {
		if i > 0 {
			rt.countFailover(candidates[i-1])
		}
		if opts.inline != nil && opts.key != "" {
			rt.registerInline(ctx, peer, opts.header, opts.inline)
		}
		p, err := rt.exchange(ctx, peer, opts.method, opts.uri, opts.header, opts.body)
		if err != nil {
			lastErr = err
			continue
		}
		return rt.healMissingGraph(ctx, p, opts), nil
	}
	return nil, lastErr
}

// countFailover counts a request that moved on from peer to another.
func (rt *Router) countFailover(peer string) {
	rt.peers[peer].failovers.Add(1)
	rt.gauges.peerFailover.With(peer).Inc()
}

// healMissingGraph retries a graph_not_found answer after hydrating
// the missing graph onto the answering peer from a donor that still
// holds it. Up to two rounds, because an audit names two graphs. Any
// failure returns the best answer we have — the original 404.
func (rt *Router) healMissingGraph(ctx context.Context, p *proxied, opts proxyOpts) *proxied {
	for round := 0; round < 2; round++ {
		ref := missingGraphRef(p.resp.StatusCode, p.body)
		if ref == "" {
			return p
		}
		if !rt.hydrate(ctx, p.peer, ref, opts.header) {
			return p
		}
		retry, err := rt.exchange(ctx, p.peer, opts.method, opts.uri, opts.header, opts.body)
		if err != nil {
			return p
		}
		p = retry
	}
	return p
}

// missingGraphRef extracts the graph reference a 404 graph_not_found
// envelope names, from either the graph_ref or the id detail.
func missingGraphRef(status int, body []byte) string {
	if status != http.StatusNotFound {
		return ""
	}
	var er api.ErrorResponse
	if json.Unmarshal(body, &er) != nil || er.Err == nil {
		return ""
	}
	return graphNotFoundRef(er.Err)
}

// graphNotFoundRef is the graph reference a graph_not_found error
// names, from either the graph_ref or the id detail.
func graphNotFoundRef(e *api.Error) string {
	if e.Code != api.CodeGraphNotFound {
		return ""
	}
	for _, k := range []string{"graph_ref", "id"} {
		if v, ok := e.Details[k].(string); ok && v != "" {
			return v
		}
	}
	return ""
}

// hydrate copies graph id onto target from the first healthy peer
// that still holds it: GET the donor's snapshot envelope, PUT it on
// the target. Digest verification happens on the target — a corrupt
// donor cannot poison the tier.
func (rt *Router) hydrate(ctx context.Context, target, id string, hdr http.Header) bool {
	uri := "/v1/graphs/" + id + "/snapshot"
	var sawDonor bool
	for _, donor := range rt.healthyPeers() {
		if donor == target {
			continue
		}
		snap, err := rt.exchange(ctx, donor, http.MethodGet, uri, hdr, nil)
		if err != nil || snap.resp.StatusCode != http.StatusOK {
			continue
		}
		sawDonor = true
		put, err := rt.exchange(ctx, target, http.MethodPut, uri, hdr, snap.body)
		if err != nil || put.resp.StatusCode/100 != 2 {
			continue
		}
		rt.countHydration("ok")
		return true
	}
	if sawDonor {
		rt.countHydration("error")
	} else {
		rt.countHydration("no_donor")
	}
	return false
}

// registerInline best-effort registers an inline graph on the peer
// about to serve it, so the operation's graph becomes addressable by
// content address for every later graph_ref request.
func (rt *Router) registerInline(ctx context.Context, peer string, hdr http.Header, g *api.Graph) {
	body, err := json.Marshal(api.GraphRegisterRequest{Graph: g})
	if err != nil {
		return
	}
	regHdr := http.Header{"Content-Type": []string{"application/json"}}
	if auth := hdr.Get("Authorization"); auth != "" {
		regHdr.Set("Authorization", auth)
	}
	resp, err := rt.send(ctx, peer, http.MethodPost, "/v1/graphs", regHdr, body)
	if err != nil {
		return
	}
	drainClose(resp)
}

// relay writes a buffered upstream response to the client unchanged.
func relay(w http.ResponseWriter, p *proxied) {
	copyHeaders(w.Header(), p.resp.Header)
	w.WriteHeader(p.resp.StatusCode)
	w.Write(p.body)
}

// route is where a request document goes.
type route struct {
	// key is the routing key: the first graph reference the document
	// names, else its inline graph's digest ("" = any peer).
	key string
	// inline is the document's first inline graph, pre-registered on
	// the peer that serves it.
	inline *api.Graph
	// shared reports that the document inherits its batch's shared
	// graph_ref.
	shared bool
}

// routeKey routes the request document of operation op by the graphs
// its request type names (api.Request.Graphs), after lopserve's own
// graph_ref inheritance rule: sharedRef is the batch's graph_ref, ""
// outside a batch. An op not in the table, or a document the router
// cannot decode, routes unkeyed: the backend owns rejecting it.
func routeKey(op string, doc []byte, sharedRef string) route {
	o, ok := api.LookupOp(op)
	if !ok {
		return route{}
	}
	req := o.New()
	if json.Unmarshal(doc, req) != nil {
		return route{}
	}
	out := route{shared: o.InheritGraphRef(req, sharedRef)}
	refs, inline := req.Graphs()
	// The wire types serialize Graph as a value, so a reference-only
	// request still carries {"n":0}: only a graph with vertices is an
	// inline graph.
	for _, g := range inline {
		if g != nil && g.N > 0 {
			out.inline = g
			break
		}
	}
	for _, ref := range refs {
		if *ref != "" {
			out.key = *ref
			return out
		}
	}
	if out.inline != nil {
		out.key = digestOf(out.inline)
	}
	return out
}

// digestOf computes the content address of an inline wire graph with
// the registry's own canonicalization. Invalid graphs yield "" and
// route unkeyed; the backend produces the real validation error.
func digestOf(g *api.Graph) string {
	canonical, err := registry.Canonicalize(g.N, g.Edges)
	if err != nil {
		return ""
	}
	return registry.Digest(g.N, canonical)
}
