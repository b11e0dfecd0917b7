package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// RMATParams are the recursive quadrant probabilities of the R-MAT
// model (Chakrabarti, Zhan, Faloutsos; SDM 2004). They must be
// non-negative and sum to 1. The classic "web graph" setting is
// a=0.57, b=0.19, c=0.19, d=0.05, which produces the heavy-tailed
// degree distributions of crawl data — the regime where the paper's
// Google and Berkeley-Stanford samples live, and where the simpler
// community generators under-disperse degree (see
// docs/ARCHITECTURE.md#scale-substitution).
type RMATParams struct {
	A, B, C, D float64
}

// WebRMAT returns the canonical heavy-tail parameterization.
func WebRMAT() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05} }

func (p RMATParams) validate() error {
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 {
		return fmt.Errorf("gen: negative R-MAT parameter %+v", p)
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("gen: R-MAT parameters sum to %v, want 1", sum)
	}
	return nil
}

// RMAT generates a simple undirected graph with n vertices (n rounded
// up to a power of two internally, then truncated back) and m distinct
// edges by recursively dropping each edge into one of four adjacency
// quadrants with probabilities (A, B, C, D). Self-loops and duplicates
// are redrawn, so the result is a simple graph with exactly m edges
// unless the quadrant skew makes that impossible within the attempt
// budget, in which case it returns as many as it found (callers can
// top up with AdjustEdgeCount).
func RMAT(n, m int, p RMATParams, rng *rand.Rand) (*graph.Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("gen: RMAT needs n >= 2, got %d", n)
	}
	max := n * (n - 1) / 2
	if m > max {
		return nil, fmt.Errorf("gen: RMAT m=%d exceeds %d possible edges", m, max)
	}
	// levels = ceil(log2(n)).
	levels := 0
	for 1<<levels < n {
		levels++
	}
	g := graph.New(n)
	// Noise keeps the distribution from collapsing onto a few cells on
	// small graphs (standard "smoothed" R-MAT): each level jitters the
	// quadrant probabilities by up to ±10% and renormalizes.
	attempts := 0
	budget := 100 * m
	for g.M() < m && attempts < budget {
		attempts++
		u, v := 0, 0
		span := 1 << levels
		for span > 1 {
			a, b, c, _ := jitter(p, rng)
			r := rng.Float64()
			span /= 2
			switch {
			case r < a:
				// top-left: both stay
			case r < a+b:
				v += span
			case r < a+b+c:
				u += span
			default:
				u += span
				v += span
			}
		}
		if u == v || u >= n || v >= n {
			continue
		}
		g.AddEdge(u, v)
	}
	return g, nil
}

// jitter perturbs each quadrant probability by ±10% and renormalizes.
func jitter(p RMATParams, rng *rand.Rand) (a, b, c, d float64) {
	a = p.A * (0.9 + 0.2*rng.Float64())
	b = p.B * (0.9 + 0.2*rng.Float64())
	c = p.C * (0.9 + 0.2*rng.Float64())
	d = p.D * (0.9 + 0.2*rng.Float64())
	sum := a + b + c + d
	return a / sum, b / sum, c / sum, d / sum
}
