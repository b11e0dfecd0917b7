// POST /v1/anonymize: run one anonymization method on a graph. This is
// the operation that streams progress when executed as an async job:
// the run closure bridges the library's Progress callback onto the
// job's event stream (see events.go).
package server

import (
	"context"
	"fmt"
	"time"

	lopacity "repro"
	"repro/api"
	"repro/internal/jobs"
)

// prepareAnonymize validates an anonymize request and packages it as a
// cacheable operation. The cache key covers every input that steers
// the run — graph, L, theta, method, look-ahead, seed, the effective
// (clamped) budget — so two requests collide only when the computation
// is genuinely identical. The engine and store hints are validated but
// not keyed: every one yields the same distance store.
// Runs that time out are not stored: a rerun with more headroom may
// legitimately do better, and a byte-identical replay of a partial
// result would pin that accident of scheduling. On the graph_ref path
// the run seeds from the registered graph's cached distance store
// (cloning it instead of rebuilding APSP), so repeat anonymize
// requests pay zero builds — the BenchmarkAnonymizeInline /
// BenchmarkAnonymizeRef pair quantifies the saving.
func (s *Server) prepareAnonymize(req *api.AnonymizeRequest) (prepared, error) {
	g, ent, err := s.resolveGraph(req.Graph, req.GraphRef)
	if err != nil {
		return prepared{}, err
	}
	if req.L < 0 {
		// Unlike opacity, anonymize accepts l:0 as "use the library
		// default of 1" (normalized below so l:0 and l:1 share a cache
		// key); only negatives are outside the domain.
		return prepared{}, fmt.Errorf("l must be >= 0 (l:0 selects the default 1), got %d", req.L)
	}
	l := max(req.L, 1) // l:0 is the library's default of 1
	if err := checkL(l); err != nil {
		return prepared{}, err
	}
	if err := checkTheta(req.Theta); err != nil {
		return prepared{}, err
	}
	method := lopacity.EdgeRemoval
	if req.Method != "" {
		method, err = lopacity.ParseMethod(req.Method)
		if err != nil {
			return prepared{}, err
		}
	}
	if err := validateHints(req.Engine, req.Store); err != nil {
		return prepared{}, err
	}
	cacheOff, err := parseCacheMode(req.Cache)
	if err != nil {
		return prepared{}, err
	}
	budget := s.cfg.MaxBudget
	if req.BudgetMS > 0 {
		if b := time.Duration(req.BudgetMS) * time.Millisecond; b < budget {
			budget = b
		}
	}
	if req.LookAhead < 0 {
		return prepared{}, fmt.Errorf("lookahead must be >= 1, got %d", req.LookAhead)
	}
	lookAhead := req.LookAhead
	if lookAhead == 0 { // the library's default; normalized so omitted and 1 share a key
		lookAhead = 1
	}
	var key jobs.Key
	if !cacheOff { // an inline graph's digest is O(m); skip it when bypassing
		key, err = resultKey("anonymize", g, ent, struct {
			L         int     `json:"l"`
			Theta     float64 `json:"theta"`
			Method    string  `json:"method"`
			LookAhead int     `json:"lookahead"`
			Seed      int64   `json:"seed"`
			BudgetMS  int64   `json:"budget_ms"`
		}{l, req.Theta, method.String(), lookAhead, req.Seed, budget.Milliseconds()})
		if err != nil {
			return prepared{}, err
		}
	}
	run := func(ctx context.Context) (any, bool, error) {
		opts := lopacity.Options{
			L: l, Theta: req.Theta, Method: method,
			LookAhead: lookAhead, Seed: req.Seed, Budget: budget,
		}
		if report := jobs.Reporter(ctx); report != nil {
			// Async path: stream committed steps onto the job's event
			// stream so watchers see the run advance instead of polling.
			publish := progressPublisher(report)
			opts.Progress = func(p lopacity.Progress) {
				publish(api.JobProgress{
					Steps:      p.Steps,
					MaxOpacity: p.MaxOpacity,
					ElapsedMS:  p.Elapsed.Milliseconds(),
					BudgetMS:   p.Budget.Milliseconds(),
				})
			}
		}
		if ent != nil {
			// Registry path: seed the run from the cached distance
			// store (built at most once per (graph, L) and shared
			// read-only); the run clones it, so this request performs
			// zero APSP builds once the store is warm.
			st, _ := ent.Store(l)
			opts.Distances = lopacity.WrapDistances(st)
		}
		res, err := lopacity.AnonymizeContext(ctx, g, opts)
		if err != nil {
			return nil, false, err
		}
		if res.Cancelled {
			// The job was cancelled or the client went away: surface
			// the context's error instead of a half-finished result,
			// and never cache it.
			return nil, false, ctx.Err()
		}
		return api.AnonymizeResponse{
			Graph:      graphJSON(res.Graph),
			Satisfied:  res.Satisfied,
			MaxOpacity: res.MaxOpacity,
			Removed:    pairsOrEmpty(res.Removed),
			Inserted:   pairsOrEmpty(res.Inserted),
			Steps:      res.Steps,
			TimedOut:   res.TimedOut,
			Distortion: lopacity.Distortion(g, res.Graph),
		}, !res.TimedOut, nil
	}
	return prepared{cached: !cacheOff, key: key, run: run}, nil
}
