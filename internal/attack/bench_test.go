package attack

import (
	"math/rand"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
)

var benchAuditSink int

// BenchmarkAdversaryAudit times the work of one /v1/audit request — New,
// MaxConfidence, then VulnerablePairs at the same L — on a WebRMAT graph
// of the serving benchmark's audit size (n=2000, m=20000) at L=2: cold,
// and over a prebuilt store capped at L, as a warm registry hands it.
func BenchmarkAdversaryAudit(b *testing.B) {
	g, err := gen.RMAT(2000, 20000, gen.WebRMAT(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	const L = 2
	degrees := g.Degrees()
	for _, c := range []struct {
		name  string
		store apsp.Store
	}{
		{"cold", nil},
		{"store", apsp.Build(g, L, apsp.BuildOptions{})},
	} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				a, err := New(g, degrees)
				if err != nil {
					b.Fatal(err)
				}
				if err := a.UseStore(c.store); err != nil {
					b.Fatal(err)
				}
				benchAuditSink += a.MaxConfidence(L).Within + len(a.VulnerablePairs(L, 0.5))
			}
		})
	}
}
