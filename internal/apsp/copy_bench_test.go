package apsp

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// overlayBases are the backings a registry serves a parent store from:
// the heap build, or a paged view of its snapshot file.
var overlayBases = []string{"heap", "paged"}

// repairedOverlay builds the L=2 store of an acm1000 graph, serves it
// from the named backing, and repairs depth 2-remove/2-add diffs onto
// it, returning the overlay chain the registry's write-through and
// compaction see after depth churn steps.
func repairedOverlay(b *testing.B, backing string, depth int) *Overlay {
	b.Helper()
	g := dataset.Generate(dataset.ACM(1000), 1)
	var s Store
	switch path := filepath.Join(b.TempDir(), "base.store"); backing {
	case "heap":
		s = Build(g, 2, BuildOptions{})
	case "paged":
		snapshotFile(b, path, g, 2, KindCompact)
		p, err := OpenPagedStore(path, NewPageCache(64*pageSize))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { p.Close() })
		s = p
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < depth; k++ {
		d := validDiff(b, rng, g, 2, 2)
		g = applyDiff(b, g, d)
		var ok bool
		if s, ok = RepairStore(s, g, d, RepairOptions{}); !ok {
			b.Fatal("repair bailed")
		}
	}
	o, ok := s.(*Overlay)
	if !ok || o.Depth() != depth {
		b.Fatalf("repair chain of %d steps gave %T, want a depth-%d overlay", depth, s, depth)
	}
	return o
}

// BenchmarkMarshalStoreOverlay times the registry's write-through of a
// repaired child store: encoding an overlay chain as a snapshot.
func BenchmarkMarshalStoreOverlay(b *testing.B) {
	for _, backing := range overlayBases {
		for _, depth := range []int{1, 4} {
			b.Run(fmt.Sprintf("acm1000_L2_%s_depth%d", backing, depth), func(b *testing.B) {
				o := repairedOverlay(b, backing, depth)
				for b.Loop() {
					if _, err := MarshalStore(o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOverlayCompact times the compaction a repair chain takes
// once it grows past RepairOptions.CompactDepth.
func BenchmarkOverlayCompact(b *testing.B) {
	for _, backing := range overlayBases {
		for _, depth := range []int{1, 4} {
			b.Run(fmt.Sprintf("acm1000_L2_%s_depth%d", backing, depth), func(b *testing.B) {
				o := repairedOverlay(b, backing, depth)
				for b.Loop() {
					o.Compact()
				}
			})
		}
	}
}
