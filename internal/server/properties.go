// POST /v1/properties: structural property report of a graph.
package server

import (
	"context"

	lopacity "repro"
	"repro/api"
)

func (s *Server) prepareProperties(req *api.PropertiesRequest) (prepared, error) {
	g, _, err := s.resolveGraph(req.Graph, req.GraphRef)
	if err != nil {
		return prepared{}, err
	}
	run := func(ctx context.Context) (any, bool, error) {
		return propertiesResponse(g.Properties()), false, nil
	}
	return prepared{run: run}, nil
}

// propertiesResponse maps the library's property report onto the wire
// type — the one conversion shared by the properties and dataset
// endpoints.
func propertiesResponse(p lopacity.Properties) api.PropertiesResponse {
	return api.PropertiesResponse{
		Nodes: p.Nodes, Links: p.Links, Diameter: p.Diameter,
		AvgDegree: p.AvgDegree, DegreeStdDev: p.DegreeStdDev,
		AvgClustering: p.AvgClustering,
		Assortativity: p.Assortativity, AvgPathLength: p.AvgPathLength,
	}
}
