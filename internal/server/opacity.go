// POST /v1/opacity: the L-opacity report of a graph.
package server

import (
	"context"
	"fmt"
	"net/http"

	lopacity "repro"
	"repro/api"
	"repro/internal/apsp"
	"repro/internal/jobs"
	"repro/internal/opacity"
)

func (s *Server) handleOpacity(w http.ResponseWriter, r *http.Request) {
	var req api.OpacityRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, err := s.prepareOpacity(&req)
	if err != nil {
		writeError(w, errStatus(err, http.StatusBadRequest), err)
		return
	}
	s.serveSync(w, r, p)
}

// prepareOpacity validates an opacity request and packages it as a
// cacheable operation. On the graph_ref path the run reuses the
// registered graph's cached distance store — the second request for
// the same (graph, L), whatever its engine and store hints, performs
// zero APSP builds — and
// the cache key hashes the same canonical edge set an inline spelling
// of the graph would, so both forms share one result-cache entry.
func (s *Server) prepareOpacity(req *api.OpacityRequest) (prepared, error) {
	if req.L < 1 {
		return prepared{}, fmt.Errorf("l must be >= 1, got %d", req.L)
	}
	if req.L > apsp.MaxL {
		return prepared{}, fmt.Errorf("l must be <= %d, got %d", apsp.MaxL, req.L)
	}
	g, ent, err := s.resolveGraph(req.Graph, req.GraphRef)
	if err != nil {
		return prepared{}, err
	}
	if err := validateHints(req.Engine, req.Store); err != nil {
		return prepared{}, err
	}
	cacheOff, err := parseCacheMode(req.Cache)
	if err != nil {
		return prepared{}, err
	}
	var key jobs.Key
	if !cacheOff { // hashing the edge set is O(m); skip it when bypassing
		key, err = jobs.HashJSON(struct {
			Op    string   `json:"op"`
			N     int      `json:"n"`
			Edges [][2]int `json:"edges"`
			L     int      `json:"l"`
		}{"opacity", g.N(), opEdges(g, ent), req.L})
		if err != nil {
			return prepared{}, err
		}
	}
	run := func(ctx context.Context) (any, bool, error) {
		resp := api.OpacityResponse{L: req.L}
		if ent != nil {
			// Registry path: the store is built at most once per
			// (graph, L) and shared read-only thereafter.
			st, _ := ent.Store(req.L)
			rep := opacity.NewReportFromStore(ent.Degrees(), st)
			resp.MaxOpacity = rep.MaxLO
			if len(rep.ByType) > 0 {
				resp.Types = make([]api.OpacityType, len(rep.ByType))
			}
			for i, t := range rep.ByType {
				resp.Types[i] = api.OpacityType{Label: t.Label, Within: t.Within, Total: t.Total, Opacity: t.Opacity}
			}
			return resp, true, nil
		}
		rep := g.OpacityWith(req.L, nil, lopacity.ReportOptions{})
		resp.MaxOpacity = rep.MaxOpacity
		for _, t := range rep.Types {
			resp.Types = append(resp.Types, api.OpacityType{
				Label: t.Label, Within: t.Within, Total: t.Total, Opacity: t.Opacity,
			})
		}
		return resp, true, nil
	}
	return prepared{op: "opacity", key: key, cacheable: true, cacheOff: cacheOff, run: run}, nil
}
