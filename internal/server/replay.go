// POST /v1/replay: server-side verification of an anonymization audit
// trail.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	lopacity "repro"
	"repro/api"
)

func (s *Server) prepareReplay(req *api.ReplayRequest) (prepared, error) {
	g, _, err := s.resolveGraph(req.Original, req.OriginalRef)
	if err != nil {
		return prepared{}, fmt.Errorf("original: %w", err)
	}
	opts := lopacity.ReplayOptions{L: req.L, Theta: req.Theta, SkipOpacityCheck: req.Fast}
	if req.Published != nil || req.PublishedRef != "" {
		var gj api.Graph
		if req.Published != nil {
			gj = *req.Published
		}
		pub, _, err := s.resolveGraph(gj, req.PublishedRef)
		if err != nil {
			return prepared{}, fmt.Errorf("published: %w", err)
		}
		opts.Published = pub
	}
	if err := checkL(req.L); err != nil {
		return prepared{}, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, step := range req.Trace {
		if err := enc.Encode(step); err != nil {
			return prepared{}, err
		}
	}
	run := func(ctx context.Context) (any, bool, error) {
		rep, err := lopacity.ReplayTrace(g, &buf, opts)
		resp := api.ReplayResponse{
			Verified:     err == nil,
			Steps:        rep.Steps,
			Removals:     rep.Removals,
			Insertions:   rep.Insertions,
			FinalOpacity: rep.FinalOpacity,
		}
		if err != nil {
			// A failed verification is a successful HTTP request: the
			// violation is the answer, not a transport error.
			resp.Error = err.Error()
		}
		return resp, false, nil
	}
	return prepared{run: run}, nil
}
