// POST /v1/kiso: k-isomorphism anonymization of a graph.
package server

import (
	"context"

	lopacity "repro"
	"repro/api"
)

func (s *Server) prepareKIso(req *api.KIsoRequest) (prepared, error) {
	g, _, err := s.resolveGraph(req.Graph, req.GraphRef)
	if err != nil {
		return prepared{}, err
	}
	run := func(ctx context.Context) (any, bool, error) {
		res, err := lopacity.AnonymizeKIso(g, req.K, req.Seed)
		if err != nil {
			return nil, false, err
		}
		return api.KIsoResponse{
			Graph:        graphJSON(res.Graph),
			Blocks:       res.Blocks,
			Removed:      pairsOrEmpty(res.Removed),
			Inserted:     pairsOrEmpty(res.Inserted),
			CrossRemoved: res.CrossRemoved,
			Distortion:   res.Distortion,
		}, false, nil
	}
	return prepared{run: run}, nil
}
