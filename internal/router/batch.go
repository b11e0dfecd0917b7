// Batch fan-out: one heterogeneous POST /v1/batch is partitioned by
// routing key (the graph an item names, or the batch's shared
// graph_ref), the per-key sub-batches run concurrently, and the
// per-item results merge back in request order. Two keys owned by the
// same peer still travel as two sub-batches. Item isolation survives
// the split — a sub-batch whose peer is unreachable yields
// synthesized 502 unavailable results for exactly its items, never an
// envelope-level failure for the rest.
package router

import (
	"encoding/json"
	"net/http"
	"sync"

	"repro/api"
)

// batchGroup is the slice of a batch owned by one routing key: the
// item indices in original order and the sub-batch to send.
type batchGroup struct {
	key     string
	indices []int
	req     api.BatchRequest
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req api.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		// Not a parseable batch: let one backend produce the canonical
		// validation error.
		p, perr := rt.proxy(r.Context(), proxyOpts{
			method: http.MethodPost, uri: requestURI(r), header: r.Header, body: body,
		})
		if p == nil {
			writeUnavailable(w, "", perr)
			return
		}
		relay(w, p)
		return
	}
	groups := partitionBatch(&req)
	if len(groups) <= 1 {
		// One owner (or an empty/invalid batch): forward whole, with
		// hydration healing a cold owner.
		key := ""
		if len(groups) == 1 {
			key = groups[0].key
		}
		p, err := rt.proxy(r.Context(), proxyOpts{
			method: http.MethodPost, uri: requestURI(r), header: r.Header, body: body,
			key: key, hydrateRef: key != "",
		})
		if p == nil {
			writeUnavailable(w, key, err)
			return
		}
		relay(w, p)
		return
	}

	results := make([]api.BatchItemResult, len(req.Items))
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g batchGroup) {
			defer wg.Done()
			rt.runBatchGroup(r, g, results)
		}(g)
	}
	wg.Wait()

	out := api.BatchResponse{Results: results}
	for i := range results {
		// Re-anchor indices to the original request and recount.
		results[i].Index = i
		if results[i].Error == nil && results[i].Status/100 == 2 {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	// The codec is called directly, since json.Encoder would re-compact
	// every result the backends already wrote compactly.
	b, err := out.MarshalJSON()
	if err != nil {
		writeErrorCode(w, http.StatusInternalServerError, api.CodeInternal, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// partitionBatch splits a batch by routing key. Items that name no
// graph of their own inherit the top-level GraphRef; items with no key
// at all group under "" and go to any healthy peer. The shared
// GraphRef is preserved on every sub-batch so the backend's injection
// semantics are unchanged.
func partitionBatch(req *api.BatchRequest) []batchGroup {
	order := []string{}
	byKey := map[string]*batchGroup{}
	for i, item := range req.Items {
		refs, inline := routingInfo(item.Request)
		key := ""
		switch {
		case len(refs) > 0:
			key = refs[0]
		case inline != nil:
			key = digestOf(inline)
		default:
			key = req.GraphRef
		}
		g, ok := byKey[key]
		if !ok {
			g = &batchGroup{key: key, req: api.BatchRequest{GraphRef: req.GraphRef}}
			byKey[key] = g
			order = append(order, key)
		}
		g.indices = append(g.indices, i)
		g.req.Items = append(g.req.Items, item)
	}
	out := make([]batchGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// runBatchGroup executes one sub-batch and scatters its per-item
// results into the original index positions. An unreachable peer (or
// an envelope-level error) becomes a synthesized per-item error, so
// the merged response stays index-aligned and item-isolated.
func (rt *Router) runBatchGroup(r *http.Request, g batchGroup, results []api.BatchItemResult) {
	body, err := json.Marshal(g.req)
	if err != nil {
		rt.failBatchGroup(g, results, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	if auth := r.Header.Get("Authorization"); auth != "" {
		hdr.Set("Authorization", auth)
	}
	p, err := rt.proxy(r.Context(), proxyOpts{
		method: http.MethodPost, uri: "/v1/batch", header: hdr, body: body,
		key: g.key, hydrateRef: g.key != "",
	})
	if p == nil {
		rt.failBatchGroup(g, results, http.StatusBadGateway, api.CodeUnavailable,
			"no backend available for this batch slice: "+errString(err))
		return
	}
	var resp api.BatchResponse
	if p.resp.StatusCode != http.StatusOK || resp.UnmarshalJSON(p.body) != nil || len(resp.Results) != len(g.indices) {
		status := p.resp.StatusCode
		code := api.CodeInternal
		msg := "backend batch answer was not item-aligned"
		var er api.ErrorResponse
		if json.Unmarshal(p.body, &er) == nil && er.Err != nil {
			code, msg = er.Err.Code, er.Err.Message
		}
		rt.failBatchGroup(g, results, status, code, msg)
		return
	}
	for j, idx := range g.indices {
		results[idx] = resp.Results[j]
	}
}

// failBatchGroup synthesizes one error result per item of the group.
func (rt *Router) failBatchGroup(g batchGroup, results []api.BatchItemResult, status int, code, msg string) {
	for j, idx := range g.indices {
		results[idx] = api.BatchItemResult{
			Index:  idx,
			Op:     g.req.Items[j].Op,
			Status: status,
			Error:  &api.Error{Code: code, Message: msg},
		}
	}
}
