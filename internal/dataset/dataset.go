// Package dataset catalogs the seven datasets of the paper's evaluation
// (Tables 1-3) and generates calibrated synthetic stand-ins for them.
//
// The paper samples SNAP network files and an ACM Digital Library crawl;
// neither is available offline, so — per the "Scale substitution" rule
// in docs/ARCHITECTURE.md — each sampled graph is emulated by a seeded
// generator that matches the
// published statistics of Table 3: vertex count, edge count, mean degree,
// degree standard deviation, and average clustering coefficient. The
// anonymization algorithms consume only graph structure, so matching
// these statistics reproduces the regimes (sparse vs. dense, clustered
// vs. tree-like, homogeneous vs. heavy-tailed degrees) that drive the
// paper's experimental trends.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// OriginalSpec is a Table 1 + Table 2 row: the full dataset the paper
// sampled from.
type OriginalSpec struct {
	Name        string
	Nodes       int
	Links       int
	NodeKind    string
	LinkKind    string
	Diameter    int
	AvgDegree   float64
	DegreeStdD  float64
	AvgClusterC float64
}

// SampleSpec is a Table 3 row: a sampled graph used in the experiments,
// together with its published statistics.
type SampleSpec struct {
	// Key is the registry identifier, e.g. "google100".
	Key string
	// Dataset is the source dataset name, e.g. "Google".
	Dataset string
	// N and M are the sampled vertex and edge counts.
	N, M int
	// Diameter, AvgDegree, DegreeStdD, AvgClusterC are the published
	// sample statistics the emulator calibrates toward.
	Diameter    int
	AvgDegree   float64
	DegreeStdD  float64
	AvgClusterC float64
}

// Originals returns the Table 1/2 catalog.
func Originals() []OriginalSpec {
	return []OriginalSpec{
		{"Google", 875713, 5105039, "Web pages", "Hyperlinks", 22, 11.6, 16.4, 0.6047},
		{"Berkeley-Stanford", 685230, 7600595, "Web pages", "Hyperlinks", 669, 22.1, 10.99, 0.6149},
		{"Epinions", 132000, 841372, "Users", "Trust statements", 9, 12.7, 32.68, 0.1062},
		{"Enron", 36692, 367662, "Email addresses", "Transferred emails", 12, 20, 18.58, 0.4970},
		{"Gnutella", 10876, 39994, "Hosts", "Connections", 9, 7.4, 3.01, 0.0080},
		{"ACM Digital Library", 10000, 19894, "Authors", "Co-Authors", 400, 3.97, 6.23, 0.5279},
		{"Wikipedia", 7115, 103689, "Users and candidates", "Votes", 7, 29.1, 60.39, 0.2089},
	}
}

// Samples returns the Table 3 catalog of sampled graphs.
func Samples() []SampleSpec {
	return []SampleSpec{
		{"google100", "Google", 100, 746, 7, 14.92, 11.13, 0.76},
		{"google500", "Google", 500, 3104, 15, 12.42, 10.54, 0.70},
		{"google1000", "Google", 1000, 6445, 25, 12.89, 12.62, 0.70},
		{"bs500", "Berkeley-Stanford", 500, 4454, 6, 17.82, 21.50, 0.62},
		{"epinions100", "Epinions", 100, 65, 4, 1.3, 0.72, 0.04},
		{"enron100", "Enron", 100, 346, 4, 6.92, 9.28, 0.31},
		{"enron500", "Enron", 500, 5686, 4, 22.74, 25.81, 0.37},
		{"gnutella100", "Gnutella", 100, 116, 6, 2.32, 3.00, 0.05},
		{"gnutella500", "Gnutella", 500, 721, 8, 2.88, 3.19, 0.09},
		{"gnutella1000", "Gnutella", 1000, 1852, 8, 3.71, 3.51, 0.02},
		{"wikipedia100", "Wikipedia", 100, 919, 3, 18.38, 15.19, 0.54},
		{"wikipedia500", "Wikipedia", 500, 7244, 4, 28.98, 33.02, 0.39},
		// Section 6.3 additionally reports tiny Epinions(Trust) and
		// Gnutella samples with 130 and 232 edges for the L=2 and
		// varying-L experiments; Figure 8c uses an Epinions(Distrust)
		// sample with statistics akin to the Trust one.
		{"epinions-trust100", "Epinions", 100, 130, 5, 2.6, 1.4, 0.06},
		{"epinions-distrust100", "Epinions", 100, 124, 5, 2.48, 1.3, 0.05},
		{"gnutella-s100", "Gnutella", 100, 232, 6, 4.64, 3.4, 0.05},
	}
}

// ByKey returns the sample spec registered under the given key.
func ByKey(key string) (SampleSpec, bool) {
	for _, s := range Samples() {
		if s.Key == key {
			return s, true
		}
	}
	return SampleSpec{}, false
}

// Keys returns all registered sample keys, sorted.
func Keys() []string {
	specs := Samples()
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key
	}
	sort.Strings(keys)
	return keys
}

// ACM returns the spec for an ACM Digital Library coauthorship sample of
// n vertices, the growing-size dataset of the paper's Figures 11 and 12
// (1000 to 10000 nodes, 3874 to 39788 edges: edge count grows linearly
// at just under 4 edges per author).
func ACM(n int) SampleSpec {
	m := int(math.Round(3.9788 * float64(n)))
	return SampleSpec{
		Key:         fmt.Sprintf("acm%d", n),
		Dataset:     "ACM Digital Library",
		N:           n,
		M:           m,
		Diameter:    40,
		AvgDegree:   2 * float64(m) / float64(n),
		DegreeStdD:  6.23,
		AvgClusterC: 0.5279,
	}
}

// Generate builds the calibrated synthetic stand-in for a sample spec.
// Clustered datasets (web and collaboration graphs) start from a
// community-block model whose internal density lands near the target
// clustering; tree-like datasets (peer-to-peer, trust) start from an
// erased configuration model over a lognormal degree sequence matching
// (AvgDegree, DegreeStdD). Both are adjusted to exactly M edges and then
// rewired toward AvgClusterC. Deterministic for a fixed seed.
func Generate(spec SampleSpec, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if spec.AvgClusterC >= 0.25 {
		p := spec.AvgClusterC + 0.1
		if p > 0.95 {
			p = 0.95
		}
		g = gen.CommunityModel(spec.N, spec.M, p, rng)
	} else {
		degrees := gen.LogNormalDegrees(spec.N, spec.AvgDegree, spec.DegreeStdD, rng)
		g = gen.ConfigurationModel(degrees, rng)
	}
	gen.AdjustEdgeCount(g, spec.M, rng)
	if spec.AvgClusterC > 0.02 {
		budget := 60 * spec.N
		gen.CalibrateClustering(g, spec.AvgClusterC, 0.02, budget, rng)
	}
	return g
}

// GenerateByKey is Generate for a registered key.
func GenerateByKey(key string, seed int64) (*graph.Graph, error) {
	spec, ok := ByKey(key)
	if !ok {
		if n, isACM := parseACMKey(key); isACM {
			return Generate(ACM(n), seed), nil
		}
		return nil, fmt.Errorf("dataset: unknown sample key %q (known: %v, plus acm<N>)", key, Keys())
	}
	return Generate(spec, seed), nil
}

// parseACMKey recognizes the dynamic "acm<N>" keys of the Figure 11/12
// scale sweep, e.g. "acm2000".
func parseACMKey(key string) (n int, ok bool) {
	const prefix = "acm"
	if !strings.HasPrefix(key, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(key[len(prefix):])
	if err != nil || n < 10 {
		return 0, false
	}
	return n, true
}
