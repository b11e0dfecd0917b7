// POST /v1/audit: degree-knowledge adversary audit of a published
// graph.
package server

import (
	"context"
	"fmt"

	lopacity "repro"
	"repro/api"
)

// prepareAudit validates an audit request. When the published graph is
// a registry reference AND its L-capped store is already cached (by a
// prior opacity/anonymize/audit request or a warm restart), the
// adversary counts its degree-pair census from that store — zero
// distance computation. On a cold registry the adversary builds a
// private store for its census — one build and one row walk answer the
// whole audit — and the registry is left as it was, so a one-off audit
// takes no slot of its store budget.
func (s *Server) prepareAudit(req *api.AuditRequest) (prepared, error) {
	if err := checkL(req.L); err != nil {
		return prepared{}, err
	}
	if err := checkTheta(req.Theta); err != nil {
		return prepared{}, err
	}
	pub, pubEnt, err := s.resolveGraph(req.Published, req.PublishedRef)
	if err != nil {
		return prepared{}, fmt.Errorf("published: %w", err)
	}
	orig, _, err := s.resolveGraph(req.Original, req.OriginalRef)
	if err != nil {
		return prepared{}, fmt.Errorf("original: %w", err)
	}
	adv, err := lopacity.NewAdversary(pub, orig)
	if err != nil {
		return prepared{}, err
	}
	run := func(ctx context.Context) (any, bool, error) {
		if pubEnt != nil {
			if st, ok := pubEnt.CachedDistances(req.L); ok {
				if err := adv.UseDistances(lopacity.WrapDistances(st)); err != nil {
					return nil, false, err
				}
			}
		}
		maxInf := adv.MaxConfidence(req.L)
		resp := api.AuditResponse{
			Passed:        maxInf.Confidence <= req.Theta,
			MaxConfidence: maxInf.Confidence,
			MaxType:       fmt.Sprintf("{%d,%d}", maxInf.DegreeA, maxInf.DegreeB),
		}
		for _, inf := range adv.VulnerablePairs(req.L, req.Theta) {
			resp.Vulnerable = append(resp.Vulnerable, api.AuditType{
				D1: inf.DegreeA, D2: inf.DegreeB, Confidence: inf.Confidence,
			})
		}
		return resp, false, nil
	}
	return prepared{run: run}, nil
}
