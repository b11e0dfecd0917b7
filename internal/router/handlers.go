// Per-endpoint routing strategies. Every operation of the wire table
// api.Ops gets its POST /v1/<op> route from that table, and routes by
// the graph its document names (routeKey) there, as a job submission
// and, in batch.go, as a batch item; so adding an operation to the
// table needs no edit here. Graph CRUD routes by the path id (DELETE
// broadcasts — a delete must not resurrect via a stale replica); job
// lifecycle requests follow the peer that accepted the submission;
// list endpoints merge across the tier.
package router

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	lopacity "repro"
	"repro/api"
)

// handleOp proxies POST /v1/<op>, for every operation of the wire
// table, to the peer that owns the graph its document names; an
// operation that names none goes to any peer.
func (rt *Router) handleOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := rt.postBody(w, r)
		if !ok {
			return
		}
		if p := rt.forward(w, r, body, routeKey(op, body, "")); p != nil {
			relay(w, p)
		}
	}
}

// forward proxies a request with its buffered body along its route. A
// nil answer means every candidate was unreachable and the 502 is
// already written.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, to route) *proxied {
	p, err := rt.proxy(r.Context(), proxyOpts{
		method: r.Method, uri: requestURI(r), header: r.Header, body: body, route: to,
	})
	if p == nil {
		writeUnavailable(w, to.key, err)
	}
	return p
}

// handleAnyPeer proxies GET /v1/datasets, which has no graph affinity,
// to any healthy peer, round-robin.
func (rt *Router) handleAnyPeer(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if p := rt.forward(w, r, body, route{}); p != nil {
		relay(w, p)
	}
}

// handleGraphs is GET /v1/graphs (merged across the tier) and POST
// /v1/graphs (routed to the ring owner of the graph's content
// address, computed locally for both inline and dataset bodies).
func (rt *Router) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rt.mergeGraphLists(w, r)
	case http.MethodPost:
		body, ok := rt.readBody(w, r)
		if !ok {
			return
		}
		if p := rt.forward(w, r, body, route{key: registerKey(body)}); p != nil {
			relay(w, p)
		}
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// registerKey computes the routing key of a registration body: the
// digest of the inline graph, or of the deterministically generated
// dataset. An unparseable body routes unkeyed and fails on the
// backend with the real validation error.
func registerKey(body []byte) string {
	var req api.GraphRegisterRequest
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	if req.Graph != nil {
		return digestOf(req.Graph)
	}
	if req.Dataset != "" {
		g, err := lopacity.Dataset(req.Dataset, req.Seed)
		if err != nil {
			return ""
		}
		return digestOf(&api.Graph{N: g.N(), Edges: g.Edges()})
	}
	return ""
}

// mergeGraphLists fans GET /v1/graphs out to every healthy peer and
// merges: graphs deduplicated by content address (during a migration
// two peers may briefly hold the same graph), sorted by id, capacity
// summed — the tier's total.
func (rt *Router) mergeGraphLists(w http.ResponseWriter, r *http.Request) {
	peers := rt.healthyPeers()
	type listResult struct {
		list api.GraphListResponse
		ok   bool
	}
	results := make([]listResult, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			p, err := rt.exchange(r.Context(), peer, http.MethodGet, requestURI(r), r.Header, nil)
			if err != nil || p.resp.StatusCode != http.StatusOK {
				return
			}
			if json.Unmarshal(p.body, &results[i].list) == nil {
				results[i].ok = true
			}
		}(i, peer)
	}
	wg.Wait()
	merged := api.GraphListResponse{Graphs: []api.GraphInfo{}}
	seen := map[string]bool{}
	any := false
	for _, res := range results {
		if !res.ok {
			continue
		}
		any = true
		merged.Capacity += res.list.Capacity
		for _, g := range res.list.Graphs {
			if !seen[g.ID] {
				seen[g.ID] = true
				merged.Graphs = append(merged.Graphs, g)
			}
		}
	}
	if !any {
		writeUnavailable(w, "", nil)
		return
	}
	sort.Slice(merged.Graphs, func(i, j int) bool { return merged.Graphs[i].ID < merged.Graphs[j].ID })
	writeJSON(w, http.StatusOK, merged)
}

// handleGraphByID proxies /v1/graphs/{id} and /v1/graphs/{id}/snapshot
// by the path id. Reads, PATCH, and snapshot transfer go to the owner
// (with hydration healing a cold one); DELETE broadcasts to every
// peer so no replica can resurrect the graph later.
func (rt *Router) handleGraphByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.Method == http.MethodDelete {
		rt.broadcastDelete(w, r, id)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if p := rt.forward(w, r, body, route{key: id}); p != nil {
		relay(w, p)
	}
}

// broadcastDelete deletes id on every reachable peer. The answer is
// deleted=true if any peer held the graph; 404 only when every peer
// answered 404; 502 when nobody answered at all.
func (rt *Router) broadcastDelete(w http.ResponseWriter, r *http.Request, id string) {
	var (
		deleted  *proxied
		notFound *proxied
	)
	for _, peer := range rt.anyPeerOrder() {
		p, err := rt.exchange(r.Context(), peer, http.MethodDelete, requestURI(r), r.Header, nil)
		if err != nil {
			continue
		}
		if p.resp.StatusCode/100 == 2 && deleted == nil {
			deleted = p
		} else if notFound == nil {
			notFound = p
		}
	}
	switch {
	case deleted != nil:
		relay(w, deleted)
	case notFound != nil:
		relay(w, notFound)
	default:
		writeUnavailable(w, id, nil)
	}
}

// handleJobSubmit routes POST /v1/jobs as its op's route would route
// the inner request, and remembers which peer minted the job id, so
// the lifecycle endpoints can find it without a content address.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.postBody(w, r)
	if !ok {
		return
	}
	// A submission the router cannot decode routes unkeyed.
	var submit api.JobSubmitRequest
	_ = json.Unmarshal(body, &submit)
	p := rt.forward(w, r, body, routeKey(submit.Op, submit.Request, ""))
	if p == nil {
		return
	}
	if p.resp.StatusCode/100 == 2 {
		var job api.JobResponse
		if json.Unmarshal(p.body, &job) == nil {
			rt.jobs.put(job.ID, p.peer)
		}
	}
	relay(w, p)
}

// jobPeerOrder returns the peers to try for a job id: the remembered
// owner first, then everything else — a forgotten id degrades to a
// probe, not an error.
func (rt *Router) jobPeerOrder(id string) []string {
	order := rt.anyPeerOrder()
	peer, ok := rt.jobs.get(id)
	if !ok {
		return order
	}
	out := []string{peer}
	for _, p := range order {
		if p != peer {
			out = append(out, p)
		}
	}
	return out
}

// handleJobByID proxies GET/DELETE /v1/jobs/{id} to the job's peer,
// probing the tier when the placement is unknown: the first peer that
// does not answer job_not_found wins.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		methodNotAllowed(w, http.MethodGet, http.MethodDelete)
		return
	}
	id := r.PathValue("id")
	var last *proxied
	var lastErr error
	for _, peer := range rt.jobPeerOrder(id) {
		p, err := rt.exchange(r.Context(), peer, r.Method, requestURI(r), r.Header, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if !isJobNotFound(p) {
			rt.jobs.put(id, peer)
			relay(w, p)
			return
		}
		last = p
	}
	if last != nil {
		relay(w, last)
		return
	}
	writeUnavailable(w, "", lastErr)
}

func isJobNotFound(p *proxied) bool {
	if p.resp.StatusCode != http.StatusNotFound {
		return false
	}
	var er api.ErrorResponse
	return json.Unmarshal(p.body, &er) == nil && er.Err != nil && er.Err.Code == api.CodeJobNotFound
}

// handleJobEvents streams GET /v1/jobs/{id}/events from the job's
// peer: NDJSON relayed chunk by chunk with an explicit flush, so the
// client sees each event when the backend emits it, not when a buffer
// fills.
func (rt *Router) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	id := r.PathValue("id")
	var lastErr error
	for _, peer := range rt.jobPeerOrder(id) {
		resp, err := rt.send(r.Context(), peer, http.MethodGet, requestURI(r), r.Header, nil)
		if err != nil {
			lastErr = err
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// Probe the next peer only for an unknown job; relay any
			// other failure as the job peer's answer.
			p := &proxied{resp: resp, peer: peer}
			p.body, _ = readAllCapped(resp)
			if isJobNotFound(p) {
				continue
			}
			relay(w, p)
			return
		}
		rt.jobs.put(id, peer)
		streamRelay(w, resp)
		return
	}
	writeErrorCode(w, http.StatusNotFound, api.CodeJobNotFound,
		"unknown job id on every peer", map[string]any{"id": id, "last_error": errString(lastErr)})
}
