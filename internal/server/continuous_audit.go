// POST /v1/continuous_audit: replay a stream of graph mutations and
// report the L-opacity after every step — the churn-monitoring
// counterpart of a one-shot opacity check, and the request-level
// consumer of incremental store repair: each step tries to repair the
// previous step's distance store through the step's diff (an overlay
// touching only the balls around the edited edges) and falls back to a
// full APSP build only when the repair heuristics decline.
package server

import (
	"context"
	"fmt"
	"time"

	"repro/api"
	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/opacity"
)

// prepareContinuousAudit validates a continuous-audit request. The
// operation is not cached: the natural use is a job replaying a live
// mutation feed, and the per-step NDJSON progress stream — not the
// final document — is the point. On the graph_ref path the stream's
// base store comes from the registered graph's cache, so a warm
// registry starts the replay with zero APSP builds.
func (s *Server) prepareContinuousAudit(req *api.ContinuousAuditRequest) (prepared, error) {
	if err := checkL(req.L); err != nil {
		return prepared{}, err
	}
	if err := checkTheta(req.Theta); err != nil {
		return prepared{}, err
	}
	if len(req.Steps) == 0 {
		return prepared{}, fmt.Errorf("continuous_audit: provide at least one mutation step")
	}
	if len(req.Steps) > s.cfg.MaxBatchItems {
		return prepared{}, fmt.Errorf("continuous_audit: %d steps exceeds server limit %d",
			len(req.Steps), s.cfg.MaxBatchItems)
	}
	g, ent, err := s.resolveGraph(req.Graph, req.GraphRef)
	if err != nil {
		return prepared{}, err
	}
	if err := validateHints(req.Engine, req.Store); err != nil {
		return prepared{}, err
	}
	// Validate every step's diff shape up front (range, self-loops,
	// duplicates, add/remove overlap) so a malformed step is a 400
	// before any distance work, not a mid-stream failure. Whether each
	// add is absent and each remove present depends on the preceding
	// steps, so Apply re-checks that during the replay.
	diffs := make([]graph.Diff, len(req.Steps))
	for i, step := range req.Steps {
		d, err := graph.NewDiff(g.N(), step.Add, step.Remove)
		if err != nil {
			return prepared{}, fmt.Errorf("step %d: %w", i, err)
		}
		diffs[i] = d
	}
	run := func(ctx context.Context) (any, bool, error) {
		start := time.Now()
		publish := progressPublisher(jobs.Reporter(ctx))

		// The replay mutates a private working copy; a referenced
		// registry graph is never touched.
		wg := graph.New(g.N())
		for _, e := range g.Edges() {
			wg.AddEdge(e[0], e[1])
		}
		var st apsp.Store
		if ent != nil {
			// Registry path: the base store is built at most once per
			// (graph, L) and shared read-only; with a warm parent the
			// whole replay can finish with zero builds.
			st, _ = ent.Store(req.L)
		} else {
			st = apsp.Build(wg, req.L, apsp.BuildOptions{})
		}

		resp := api.ContinuousAuditResponse{
			L:              req.L,
			Steps:          make([]api.ContinuousAuditStep, 0, len(diffs)),
			FirstViolation: -1,
		}
		for i, d := range diffs {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			if err := d.Apply(wg); err != nil {
				return nil, false, fmt.Errorf("step %d: %w", i, err)
			}
			repaired := false
			if !s.cfg.DisableStoreRepair {
				if next, ok := apsp.RepairStore(st, wg, d, apsp.RepairOptions{}); ok {
					st, repaired = next, true
				}
			}
			if !repaired {
				st = apsp.Build(wg, req.L, apsp.BuildOptions{})
				resp.Rebuilds++
			} else {
				resp.Repairs++
			}
			rep := opacity.NewReportFromStore(wg.Degrees(), st)
			satisfied := req.Theta > 0 && rep.MaxLO <= req.Theta
			if req.Theta > 0 && !satisfied && resp.FirstViolation < 0 {
				resp.FirstViolation = i
			}
			resp.Steps = append(resp.Steps, api.ContinuousAuditStep{
				Step:       i,
				M:          wg.M(),
				MaxOpacity: rep.MaxLO,
				Satisfied:  satisfied,
				Repaired:   repaired,
			})
			// Async path: stream each replayed step onto the job's event
			// stream, throttled like anonymize progress.
			publish(api.JobProgress{
				Steps:      i + 1,
				MaxOpacity: rep.MaxLO,
				ElapsedMS:  time.Since(start).Milliseconds(),
			})
		}
		return resp, false, nil
	}
	return prepared{run: run}, nil
}
