package lopacity

import (
	"repro/internal/attack"
)

// Adversary models the paper's threat: an attacker who knows the
// original degree of each individual and probes the published graph for
// short linkages. Use it to audit a graph before publication or to
// verify an anonymization empirically.
type Adversary struct {
	a *attack.Adversary
}

// NewAdversary builds an adversary attacking the published graph with
// degree knowledge drawn from the original graph (pass the same graph
// twice to audit an unanonymized release). The graphs must have the
// same vertex count.
func NewAdversary(published, original *Graph) (*Adversary, error) {
	a, err := attack.New(published.g, original.g.Degrees())
	if err != nil {
		return nil, err
	}
	return &Adversary{a: a}, nil
}

// UseDistances equips the adversary with a prebuilt L-capped distance
// store of the PUBLISHED graph (a registry handle, see
// lopacity.DistanceStore). A query at L counts from that store when
// the store's cap is L, or when both are at least n-1, past which no
// distance reaches; a query at any other L builds a private store
// capped at min(L, n-1). The serving layer's audit path thus reuses
// the cached store its opacity and anonymize paths do. Answers are
// identical with or without the store. Passing nil drops it.
func (adv *Adversary) UseDistances(d *DistanceStore) error {
	return adv.a.UseStore(d.store())
}

// Inference is one linkage-disclosure finding: the adversary's
// confidence that two individuals with the given original degrees are
// within L hops in the published graph.
type Inference struct {
	// DegreeA and DegreeB are the degrees the adversary knows.
	DegreeA, DegreeB int
	// L is the path-length bound of the inference.
	L int
	// Within and Total count candidate pairs within L and overall.
	Within, Total int
	// Confidence is Within / Total. The graph is L-opaque w.r.t. theta
	// exactly when every inference has Confidence <= theta.
	Confidence float64
}

func convertInference(inf attack.Inference) Inference {
	return Inference{
		DegreeA:    inf.DegreeA,
		DegreeB:    inf.DegreeB,
		L:          inf.L,
		Within:     inf.Within,
		Total:      inf.Total,
		Confidence: inf.Confidence,
	}
}

// LinkageConfidence answers one query: how confident is the adversary
// that a person with original degree d1 and one with original degree d2
// are within L hops?
func (adv *Adversary) LinkageConfidence(d1, d2, L int) Inference {
	return convertInference(adv.a.LinkageConfidence(d1, d2, L))
}

// MaxConfidence returns the strongest linkage inference available to
// the adversary — equivalently, the graph's maximum L-opacity.
func (adv *Adversary) MaxConfidence(L int) Inference {
	return convertInference(adv.a.MaxConfidence(L))
}

// VulnerablePairs lists every degree-pair inference with confidence
// above theta, strongest first. An empty result certifies the published
// graph L-opaque with respect to theta.
func (adv *Adversary) VulnerablePairs(L int, theta float64) []Inference {
	raw := adv.a.VulnerablePairs(L, theta)
	out := make([]Inference, len(raw))
	for i, inf := range raw {
		out[i] = convertInference(inf)
	}
	return out
}

// IdentityCandidates returns the sizes of the adversary's candidate
// sets (one per occupied degree), ascending. A leading 1 means some
// individual is uniquely re-identifiable from degree knowledge — the
// identity-disclosure measure the paper contrasts with linkage
// disclosure.
func (adv *Adversary) IdentityCandidates() []int {
	return adv.a.IdentityCandidates()
}
