// Batch fan-out: one heterogeneous POST /v1/batch is partitioned by
// the peer that will serve each item, the first candidate for the
// item's routing key (the graph it names, or the batch's shared
// graph_ref when its operation inherits that, as lopserve applies it).
// Every peer thus gets one sub-batch per request, however many of its
// graphs the batch names; items with no key form one more group that
// goes to any peer. A sub-batch carries the shared graph_ref only when
// one of its items inherits it. So when no peer holds that graph, the
// items of the sub-batches that carry it fail, each with a 404
// graph_not_found, and the others run; a batch with one group gets
// lopserve's envelope-level 404. The sub-batches run concurrently and
// the per-item results merge back in request order. When a group's
// peer is unreachable, its items are partitioned again without that
// peer, so each item fails over along its own key's candidate order.
//
// Healing is per item, because one sub-batch carries many graph refs:
// after a sub-batch answers 200, every item that came back 404
// graph_not_found has its graph hydrated onto the serving peer from a
// donor, once per graph, and those items alone are resent. An audit
// names two graphs, so there are two rounds. A batch with one group is
// relayed whole and healed the same way. Item isolation survives the
// split: items whose peers are all unreachable yield synthesized 502
// unavailable results, never an envelope-level failure for the rest.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"repro/api"
)

// batch is a decoded batch request with the route of each item,
// decoded once.
type batch struct {
	api.BatchRequest
	routes []route
}

// sub is the sub-batch of the items at indices. It carries the shared
// graph_ref only when one of them inherits it, so a peer that serves
// only items naming their own graphs need not hold the shared one.
func (b *batch) sub(indices []int) ([]byte, error) {
	sub := api.BatchRequest{Items: make([]api.BatchItem, len(indices))}
	for j, i := range indices {
		sub.Items[j] = b.Items[i]
		if b.routes[i].shared {
			sub.GraphRef = b.GraphRef
		}
	}
	return json.Marshal(sub)
}

// batchGroup is the slice of a batch one peer serves: the original
// indices of its items, in request order.
type batchGroup struct {
	groupID
	indices []int
}

// groupID names a group's peer. peer is "" for the items that name no
// graph (anyPeer), which any peer may serve, and for items whose
// candidates are all unreachable.
type groupID struct {
	peer    string
	anyPeer bool
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.postBody(w, r)
	if !ok {
		return
	}
	var b batch
	if json.Unmarshal(body, &b.BatchRequest) != nil || len(b.Items) == 0 {
		// Not a batch the router can split: let one backend produce the
		// canonical validation error.
		if p := rt.forward(w, r, body, route{}); p != nil {
			relay(w, p)
		}
		return
	}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	if auth := r.Header.Get("Authorization"); auth != "" {
		hdr.Set("Authorization", auth)
	}
	all := make([]int, len(b.Items))
	b.routes = make([]route, len(b.Items))
	for i, item := range b.Items {
		all[i] = i
		b.routes[i] = routeKey(item.Op, item.Request, b.GraphRef)
	}
	groups := rt.partitionBatch(&b, all, nil)
	results := make([]api.BatchItemResult, len(b.Items))
	if len(groups) > 1 {
		rt.runGroups(r.Context(), hdr, &b, groups, nil, nil, results)
		writeBatch(w, results)
		return
	}
	// One peer serves the whole batch: forward the body as it came, so
	// an envelope-level answer relays unchanged.
	p, err := rt.sendGroup(r.Context(), groups[0], requestURI(r), r.Header, body)
	if err != nil {
		rt.failOver(r.Context(), hdr, &b, groups[0], nil, err, results)
		writeBatch(w, results)
		return
	}
	// Only an answer that names the code can hold an item to heal, so a
	// healthy answer relays without being decoded.
	if bytes.Contains(p.body, []byte(api.CodeGraphNotFound)) {
		if resp, ok := batchAnswer(p, len(b.Items)); ok &&
			rt.healItems(r.Context(), p.peer, hdr, &b, all, resp.Results) {
			writeBatch(w, resp.Results)
			return
		}
	}
	relay(w, p)
}

// writeBatch writes a merged batch answer: indices re-anchored to the
// original request and the outcomes recounted.
func writeBatch(w http.ResponseWriter, results []api.BatchItemResult) {
	out := api.BatchResponse{Results: results}
	for i := range results {
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

// partitionBatch groups the items at indices by the peer that will
// serve each: the first candidate for the item's routing key that is
// not down. Items with no key form the anyPeer group.
func (rt *Router) partitionBatch(b *batch, indices []int, down map[string]bool) []batchGroup {
	var out []batchGroup
	byID := map[groupID]int{} // -> index in out
	for _, i := range indices {
		id := groupID{anyPeer: true}
		if key := b.routes[i].key; key != "" {
			id = groupID{}
			for _, peer := range rt.candidateOrder(key) {
				if !down[peer] {
					id.peer = peer
					break
				}
			}
		}
		gi, ok := byID[id]
		if !ok {
			gi = len(out)
			byID[id] = gi
			out = append(out, batchGroup{groupID: id})
		}
		out[gi].indices = append(out[gi].indices, i)
	}
	return out
}

// runGroups runs the groups concurrently and scatters their per-item
// results into the original index positions. down holds the peers
// found unreachable so far, and lastErr the latest transport error.
func (rt *Router) runGroups(ctx context.Context, hdr http.Header, b *batch, groups []batchGroup,
	down map[string]bool, lastErr error, results []api.BatchItemResult) {
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.runBatchGroup(ctx, hdr, b, g, down, lastErr, results)
		}()
	}
	wg.Wait()
}

// runBatchGroup executes one sub-batch and heals its cold items. An
// unreachable peer sends the items on along their candidate orders, and
// an envelope-level error becomes a synthesized per-item error, so the
// merged response stays index-aligned and item-isolated.
func (rt *Router) runBatchGroup(ctx context.Context, hdr http.Header, b *batch, g batchGroup,
	down map[string]bool, lastErr error, results []api.BatchItemResult) {
	if g.peer == "" && !g.anyPeer {
		rt.failUnreachable(b, g, results, lastErr)
		return
	}
	body, err := b.sub(g.indices)
	if err != nil {
		rt.failBatchGroup(b, g, results, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	p, err := rt.sendGroup(ctx, g, "/v1/batch", hdr, body)
	if err != nil {
		rt.failOver(ctx, hdr, b, g, down, err, results)
		return
	}
	resp, ok := batchAnswer(p, len(g.indices))
	if !ok {
		code := api.CodeInternal
		msg := "backend batch answer was not item-aligned"
		var er api.ErrorResponse
		if json.Unmarshal(p.body, &er) == nil && er.Err != nil {
			code, msg = er.Err.Code, er.Err.Message
		}
		rt.failBatchGroup(b, g, results, p.resp.StatusCode, code, msg)
		return
	}
	for j, idx := range g.indices {
		results[idx] = resp.Results[j]
	}
	rt.healItems(ctx, p.peer, hdr, b, g.indices, results)
}

// sendGroup posts a group's sub-batch body to its peer, healing an
// envelope-level graph_not_found (the shared graph_ref) as any keyed
// request is healed. The anyPeer group walks every peer instead. The
// error is the transport error of a peer that could not be reached.
func (rt *Router) sendGroup(ctx context.Context, g batchGroup, uri string, hdr http.Header, body []byte) (*proxied, error) {
	opts := proxyOpts{method: http.MethodPost, uri: uri, header: hdr, body: body}
	if g.anyPeer {
		return rt.proxy(ctx, opts)
	}
	p, err := rt.exchange(ctx, g.peer, http.MethodPost, uri, hdr, body)
	if err != nil {
		return nil, err
	}
	return rt.healMissingGraph(ctx, p, opts), nil
}

// failOver handles a group whose peer could not be reached: its items
// are partitioned again with that peer down, so each goes on to its own
// next candidate. The anyPeer group has already tried every peer.
func (rt *Router) failOver(ctx context.Context, hdr http.Header, b *batch, g batchGroup,
	down map[string]bool, err error, results []api.BatchItemResult) {
	if g.anyPeer {
		rt.failUnreachable(b, g, results, err)
		return
	}
	next := map[string]bool{g.peer: true}
	for peer := range down {
		next[peer] = true
	}
	groups := rt.partitionBatch(b, g.indices, next)
	if len(groups) > 1 || groups[0].peer != "" {
		rt.countFailover(g.peer)
	}
	rt.runGroups(ctx, hdr, b, groups, next, err, results)
}

// batchAnswer decodes a 200 batch answer that must hold n item
// results.
func batchAnswer(p *proxied, n int) (api.BatchResponse, bool) {
	var resp api.BatchResponse
	if p.resp.StatusCode != http.StatusOK || resp.UnmarshalJSON(p.body) != nil || len(resp.Results) != n {
		return resp, false
	}
	return resp, true
}

// healItems heals the items at indices of a 200 answer that came
// back 404 graph_not_found from peer: it hydrates each graph they name
// onto peer once, resends only those items as one sub-batch, and
// splices the answers into results, which is index-aligned with the
// batch. Two rounds, because an audit names two graphs. An item whose
// graph no donor could supply, or whose resend failed, keeps its 404.
// Reports whether any result changed.
func (rt *Router) healItems(ctx context.Context, peer string, hdr http.Header, b *batch, indices []int, results []api.BatchItemResult) bool {
	tried := map[string]bool{}
	changed := false
	for round := 0; round < 2; round++ {
		hydrated := map[string]bool{}
		var resend []int
		for _, i := range indices {
			res := results[i]
			if res.Status != http.StatusNotFound || res.Error == nil {
				continue
			}
			ref := graphNotFoundRef(res.Error)
			if ref == "" {
				continue
			}
			if !tried[ref] {
				tried[ref] = true
				hydrated[ref] = rt.hydrate(ctx, peer, ref, hdr)
			}
			if hydrated[ref] {
				resend = append(resend, i)
			}
		}
		if len(resend) == 0 {
			return changed
		}
		body, err := b.sub(resend)
		if err != nil {
			return changed
		}
		p, err := rt.exchange(ctx, peer, http.MethodPost, "/v1/batch", hdr, body)
		if err != nil {
			return changed
		}
		resp, ok := batchAnswer(p, len(resend))
		if !ok {
			return changed
		}
		for k, i := range resend {
			results[i] = resp.Results[k]
		}
		changed = true
	}
	return changed
}

// failUnreachable fails the group's items when every peer that could
// serve them is unreachable.
func (rt *Router) failUnreachable(b *batch, g batchGroup, results []api.BatchItemResult, err error) {
	rt.failBatchGroup(b, g, results, http.StatusBadGateway, api.CodeUnavailable,
		"no backend available for this batch slice: "+errString(err))
}

// failBatchGroup synthesizes one error result per item of the group.
func (rt *Router) failBatchGroup(b *batch, g batchGroup, results []api.BatchItemResult, status int, code, msg string) {
	for _, idx := range g.indices {
		results[idx] = api.BatchItemResult{
			Index:  idx,
			Op:     b.Items[idx].Op,
			Status: status,
			Error:  &api.Error{Code: code, Message: msg},
		}
	}
}
