// POST /v1/opacity: the L-opacity report of a graph.
package server

import (
	"context"

	lopacity "repro"
	"repro/api"
	"repro/internal/jobs"
	"repro/internal/opacity"
)

// prepareOpacity validates an opacity request and packages it as a
// cacheable operation. On the graph_ref path the run reuses the
// registered graph's cached distance store — the second request for
// the same (graph, L), whatever its engine and store hints, performs
// zero APSP builds — and the cache key names the graph by its content
// address, so inline and ref spellings share one result-cache entry.
func (s *Server) prepareOpacity(req *api.OpacityRequest) (prepared, error) {
	if err := checkL(req.L); err != nil {
		return prepared{}, err
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
	if !cacheOff { // an inline graph's digest is O(m); skip it when bypassing
		key, err = resultKey("opacity", g, ent, struct {
			L int `json:"l"`
		}{req.L})
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
	return prepared{cached: !cacheOff, key: key, run: run}, nil
}
