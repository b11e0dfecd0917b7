// POST /v1/batch: a list of heterogeneous operations executed in one
// request, with per-item status/error isolation.
//
// Items run through the same prepared-closure machinery the
// synchronous endpoints use, so they share the content-addressed
// result cache and — when they name the same graph reference — the
// registry's cached distance stores: N opacity items against one
// graph_ref build APSP at most once (concurrent callers join the one
// build). Items run concurrently in lanes, one goroutine each, so the
// CPUs are shared fairly and a batch takes about its total work over
// the CPUs rather than the sum of its items; MaxBatchItems bounds the
// lanes. Items with the same result-cache key share a lane and run in
// request order, so a repeated item is a byte-identical cache hit
// exactly as in a sequential run; every other item is a lane of its
// own. One item failing records its own status and error envelope in
// the matching result slot and never affects its neighbors; the batch
// answers 200 whenever the envelope itself was valid.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/api"
	"repro/internal/jobs"
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
	preps := make([]prepared, len(req.Items))
	var lanes [][]int
	laneOf := map[jobs.Key]int{}
	for i, item := range req.Items {
		resp.Results[i] = api.BatchItemResult{Index: i, Op: item.Op}
		p, err := s.prepareItem(item.Op, item.Request, req.GraphRef)
		if err != nil {
			setItemError(&resp.Results[i], err)
			continue
		}
		preps[i] = p
		if p.cached {
			if l, ok := laneOf[p.key]; ok {
				lanes[l] = append(lanes[l], i)
				continue
			}
			laneOf[p.key] = len(lanes)
		}
		lanes = append(lanes, []int{i})
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range lane {
				if r.Context().Err() != nil {
					// The client went away: the response can no longer be
					// delivered, so computing the rest only burns CPU.
					return
				}
				body, hit, err := s.runPrepared(r.Context(), preps[i])
				if err != nil {
					setItemError(&resp.Results[i], err)
					continue
				}
				resp.Results[i].Status = http.StatusOK
				resp.Results[i].CacheHit = hit
				resp.Results[i].Result = body
			}
		}()
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return
	}
	for _, res := range resp.Results {
		if res.Error != nil {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
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

// setItemError records a failed item's status and error envelope.
func setItemError(res *api.BatchItemResult, err error) {
	res.Status = errStatus(err, http.StatusBadRequest)
	res.Error = errorEnvelope(err, res.Status)
}
