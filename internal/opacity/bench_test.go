package opacity

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
)

var benchReportSink Report

// BenchmarkNewReportFromStore times a full opacity report over a warm
// store — the work of one /v1/opacity request on the registry path —
// on a WebRMAT graph of the serving benchmark's audit size (n=2000,
// m=20000): a compact store at L=2 and L=3, an overlay over the L=2
// store with ~1000 dirty cells, the shape a repaired child store takes,
// and the paged view of the L=2 snapshot as BuildToFile writes it.
func BenchmarkNewReportFromStore(b *testing.B) {
	g, err := gen.RMAT(2000, 20000, gen.WebRMAT(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	degrees := g.Degrees()
	l2 := apsp.Build(g, 2, apsp.BuildOptions{})
	ov := apsp.NewOverlay(l2)
	rng := rand.New(rand.NewSource(2))
	for ov.Dirty() < 1000 {
		i, j := rng.Intn(g.N()), rng.Intn(g.N())
		if i != j {
			ov.Set(i, j, 1+rng.Intn(ov.Far()))
		}
	}
	path := filepath.Join(b.TempDir(), "l2.store")
	if err := apsp.BuildToFile(path, g, 2, apsp.BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	paged, err := apsp.OpenPagedStore(path, apsp.NewPageCache(256<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer paged.Close()
	cases := []struct {
		name string
		st   apsp.Store
	}{
		{"rmat2000_L2", l2},
		{"rmat2000_L3", apsp.Build(g, 3, apsp.BuildOptions{})},
		{"rmat2000_L2_overlay1000", ov},
		{"rmat2000_L2_paged", paged},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchReportSink = NewReportFromStore(degrees, c.st)
			}
		})
	}
}
