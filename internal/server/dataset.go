// GET /v1/datasets and POST /v1/dataset: the built-in calibrated
// dataset emulators (the paper's Table 3 samples).
package server

import (
	"context"
	"net/http"

	lopacity "repro"
	"repro/api"
)

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, api.DatasetsResponse{Datasets: lopacity.Datasets()})
}

func (s *Server) prepareDataset(req *api.DatasetRequest) (prepared, error) {
	run := func(ctx context.Context) (any, bool, error) {
		g, err := lopacity.Dataset(req.Key, req.Seed)
		if err != nil {
			// An unknown dataset key is a 404: the resource named by
			// the request does not exist.
			return nil, false, detailedError(http.StatusNotFound, api.CodeDatasetNotFound,
				map[string]any{"key": req.Key}, err)
		}
		return api.DatasetResponse{
			Key:        req.Key,
			Graph:      graphJSON(g),
			Properties: propertiesResponse(g.Properties()),
		}, false, nil
	}
	return prepared{run: run}, nil
}
