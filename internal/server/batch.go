// POST /v1/batch: a list of heterogeneous operations executed in one
// request, with per-item status/error isolation.
//
// Items run in order through the same prepared-closure machinery the
// synchronous endpoints use, so they share the content-addressed
// result cache and — when they name the same graph reference — the
// registry's cached distance stores: N opacity items against one
// graph_ref build APSP at most once, and repeated identical items are
// byte-identical cache hits. One item failing records its own status
// and error envelope in the matching result slot and never affects
// its neighbors; the batch answers 200 whenever the envelope itself
// was valid.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/api"
)

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch: items must not be empty"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch: %d items exceeds server limit %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	if req.GraphRef != "" {
		// Fail the whole batch fast on a dangling shared reference:
		// every item that would inherit it is doomed anyway, and the
		// per-item errors would each repeat this one.
		if _, ok := s.reg.Get(req.GraphRef); !ok {
			err := graphNotFound(req.GraphRef)
			writeError(w, errStatus(err, http.StatusNotFound), err)
			return
		}
	}
	// A batch may legitimately run longer than one synchronous request —
	// an embedding http.Server's write deadline (lopserve: MaxBudget+15s)
	// is sized for a single run. Extend it to cover the accepted work,
	// bounded by MaxBatchItems.
	deadline := time.Now().Add(time.Duration(len(req.Items))*s.cfg.MaxBudget + 15*time.Second)
	http.NewResponseController(w).SetWriteDeadline(deadline)
	resp := api.BatchResponse{Results: make([]api.BatchItemResult, len(req.Items))}
	for i, item := range req.Items {
		if r.Context().Err() != nil {
			// The client went away: the response can no longer be
			// delivered, so computing the remaining items only burns CPU.
			return
		}
		res := api.BatchItemResult{Index: i, Op: item.Op}
		p, err := s.prepareItem(item.Op, item.Request, req.GraphRef)
		var body []byte
		var hit bool
		if err == nil {
			body, hit, err = s.runPrepared(r.Context(), p)
		}
		if err != nil {
			status := errStatus(err, http.StatusBadRequest)
			res.Status = status
			res.Error = errorEnvelope(err, status)
			resp.Failed++
		} else {
			res.Status = http.StatusOK
			res.CacheHit = hit
			res.Result = body
			resp.Succeeded++
		}
		resp.Results[i] = res
	}
	// The codec is called directly: through json.Encoder, every result
	// would be scanned and re-compacted once more.
	b, err := resp.MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeRawJSON(w, b)
}
