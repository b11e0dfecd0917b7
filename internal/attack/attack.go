// Package attack implements the paper's adversary model (Sections 1, 3
// and 4): an attacker who knows the ORIGINAL degree of each target
// individual and tries to infer, from the published graph, whether two
// targets are linked by a path of length at most L.
//
// The package answers the operational question behind the privacy
// definition: given background knowledge "Alice has degree d1, Bob has
// degree d2", what is the adversary's confidence that Alice and Bob are
// within distance L? With the paper's uniform-candidate semantics this
// confidence is exactly the L-opacity of the degree-pair type {d1, d2},
// so an L-opaque graph with threshold theta bounds every such inference
// by theta. The adversary therefore reads its answers off package
// opacity's per-type census of the published graph rather than counting
// candidate pairs itself; tests check them against a brute-force count
// over BFS distances, and the linkage experiments use them to
// demonstrate attacks before and after anonymization.
package attack

import (
	"fmt"
	"sort"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// Adversary holds the published graph together with the background
// knowledge (original degree of every vertex) the paper assumes.
type Adversary struct {
	published *graph.Graph
	// byDegree maps an original degree to the candidate vertex set.
	byDegree map[int][]int
	// types are the degree-pair types of the original degrees: type
	// {d1, d2} holds exactly the candidate pairs of a (d1, d2) query.
	types *opacity.ClassTypes
	// store, when non-nil, is a prebuilt L-capped distance store of the
	// published graph; see UseStore.
	store apsp.Store
	// census holds every type's count of pairs within censusL in the
	// published graph: the census of the last effective L queried, so
	// that MaxConfidence then VulnerablePairs walk the distances once.
	census  *opacity.Tracker
	censusL int
}

// New builds an adversary for a published graph and the original degree
// vector (the publication model releases original degrees alongside the
// anonymized graph). The degree slice length must equal the vertex
// count.
func New(published *graph.Graph, originalDegrees []int) (*Adversary, error) {
	if published == nil {
		return nil, fmt.Errorf("attack: nil graph")
	}
	if len(originalDegrees) != published.N() {
		return nil, fmt.Errorf("attack: %d degrees for %d vertices", len(originalDegrees), published.N())
	}
	byDegree := make(map[int][]int)
	for v, d := range originalDegrees {
		byDegree[d] = append(byDegree[d], v)
	}
	return &Adversary{
		published: published,
		byDegree:  byDegree,
		types:     opacity.NewDegreeTypes(originalDegrees),
	}, nil
}

// UseStore equips the adversary with a prebuilt L-capped distance
// store of the published graph (as cached by the serving layer's
// registry). A query at L counts from the store when the store's cap
// and L are the same effective L — equal, or both at least n-1, past
// which no distance reaches; any other L builds a private store capped
// at its effective L. Answers are identical either way. The store is
// only read, so it may be shared concurrently with other consumers.
func (a *Adversary) UseStore(s apsp.Store) error {
	if s != nil && s.N() != a.published.N() {
		return fmt.Errorf("attack: store covers %d vertices, published graph has %d", s.N(), a.published.N())
	}
	a.store = s
	return nil
}

// Candidates returns the vertices whose original degree matches the
// background knowledge about a target — the adversary's candidate set.
// The slice is shared; callers must not modify it.
func (a *Adversary) Candidates(degree int) []int {
	return a.byDegree[degree]
}

// within returns the census of pairs within L, taken once per effective
// L = min(L, n-1) over the UseStore store or a private build. It is nil
// when the effective L is below 1: no two distinct vertices are that
// close.
func (a *Adversary) within(L int) *opacity.Tracker {
	n := a.published.N()
	eff := min(L, n-1)
	if eff < 1 {
		return nil
	}
	if a.census == nil || a.censusL != eff {
		s := a.store
		if s == nil || min(s.L(), n-1) != eff {
			s = apsp.Build(a.published, eff, apsp.BuildOptions{})
		}
		a.census, a.censusL = opacity.NewTracker(a.types, s), eff
	}
	return a.census
}

// Inference is the outcome of a linkage query.
type Inference struct {
	// DegreeA and DegreeB is the background knowledge used.
	DegreeA, DegreeB int
	// L is the path-length bound of the query.
	L int
	// Within counts candidate pairs at distance <= L in the published
	// graph; Total counts all candidate pairs (the vertex-pair type
	// population, including unreachable pairs).
	Within, Total int
	// Confidence = Within / Total: the probability that two uniformly
	// drawn distinct candidates are within L. Zero when no candidate
	// pair exists.
	Confidence float64
}

// String formats the inference for reports.
func (inf Inference) String() string {
	return fmt.Sprintf("targets deg(%d),deg(%d) within %d hops: %d/%d = %.1f%%",
		inf.DegreeA, inf.DegreeB, inf.L, inf.Within, inf.Total, 100*inf.Confidence)
}

// LinkageConfidence computes the adversary's confidence that two
// individuals with original degrees d1 and d2 are connected by a path
// of length at most L in the published graph. This equals the
// L-opacity of the {d1, d2} vertex-pair type, which is what Definition
// 3 bounds by theta.
func (a *Adversary) LinkageConfidence(d1, d2, L int) Inference {
	ca, cb := a.byDegree[d1], a.byDegree[d2]
	if len(ca) == 0 || len(cb) == 0 {
		return Inference{DegreeA: d1, DegreeB: d2, L: L}
	}
	return a.inference(a.types.TypeOf(ca[0], cb[0]), d1, d2, L, a.within(L))
}

// inference reads the counts of type id, standing for degrees {d1, d2},
// off the census (nil when no pair is within L).
func (a *Adversary) inference(id, d1, d2, L int, census *opacity.Tracker) Inference {
	inf := Inference{DegreeA: d1, DegreeB: d2, L: L, Total: a.types.Total(id)}
	if census != nil {
		inf.Within = census.Count(id)
	}
	if inf.Total > 0 {
		inf.Confidence = float64(inf.Within) / float64(inf.Total)
	}
	return inf
}

// each calls fn with the inference of every populated degree pair, in
// ascending (d1, d2) order: type IDs rise with the degree pair.
func (a *Adversary) each(L int, fn func(Inference)) {
	census := a.within(L)
	for id := range a.types.NumTypes() {
		if a.types.Total(id) > 0 {
			d1, d2 := a.types.DegreePair(id)
			fn(a.inference(id, d1, d2, L, census))
		}
	}
}

// MaxConfidence scans every populated degree pair and returns the
// highest linkage confidence — by construction, the graph's maximum
// L-opacity — together with the inference that attains it. Ties go to
// the lexicographically smallest degree pair, keeping reports
// deterministic.
func (a *Adversary) MaxConfidence(L int) Inference {
	best := Inference{L: L}
	a.each(L, func(inf Inference) {
		if inf.Confidence > best.Confidence {
			best = inf
		}
	})
	return best
}

// VulnerablePairs returns every degree-pair inference whose confidence
// exceeds theta, sorted by descending confidence (ties by degree pair).
// An empty result certifies the graph L-opaque with respect to theta
// under degree background knowledge.
func (a *Adversary) VulnerablePairs(L int, theta float64) []Inference {
	var out []Inference
	a.each(L, func(inf Inference) {
		if inf.Confidence > theta {
			out = append(out, inf)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].DegreeA != out[j].DegreeA {
			return out[i].DegreeA < out[j].DegreeA
		}
		return out[i].DegreeB < out[j].DegreeB
	})
	return out
}

// IdentityCandidates reports how well the graph hides identity (the
// k-anonymity style guarantee the paper contrasts with): the number of
// vertices sharing each occupied degree, sorted ascending. The first
// element is the worst case; a value of 1 means some individual is
// uniquely re-identifiable from degree knowledge alone.
func (a *Adversary) IdentityCandidates() []int {
	out := make([]int, 0, len(a.byDegree))
	for _, vs := range a.byDegree {
		out = append(out, len(vs))
	}
	sort.Ints(out)
	return out
}
