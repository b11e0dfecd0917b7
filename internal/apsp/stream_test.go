package apsp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStreamBuildMatchesMarshal: the streaming builder's output is
// byte-for-byte the snapshot MarshalStore produces from a heap build —
// at every worker count, so the registry can switch lifecycles without
// any reader noticing.
func TestStreamBuildMatchesMarshal(t *testing.T) {
	graphs := []struct {
		name string
		n    int
		p    float64
		seed int64
	}{
		{"sparse", 40, 0.08, 1},
		{"dense", 25, 0.4, 2},
		{"tiny", 3, 0.5, 3},
		{"singleton", 1, 0, 4},
		{"empty", 0, 0, 5},
	}
	for _, gc := range graphs {
		g := randomGraph(gc.n, gc.p, gc.seed)
		want, err := MarshalStore(build(g, 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3} {
			var buf bytes.Buffer
			if err := StreamBuild(&buf, g, 3, BuildOptions{Workers: workers}); err != nil {
				t.Fatalf("%s/w=%d: %v", gc.name, workers, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s/w=%d: streamed snapshot differs from marshalled build", gc.name, workers)
			}
		}
	}
}

// TestStreamBuildFoldsKinds: the streamed payload takes the backing
// KindFor(L) derives — compact up to MaxCompactL, packed past it — and
// spans several blocks without a seam.
func TestStreamBuildFoldsKinds(t *testing.T) {
	g := randomGraph(1600, 0.003, 9) // ~1.3M cells: two blocks
	if len(streamBlocks(g.N(), 2)) < 2 {
		t.Fatal("fixture fits one block")
	}
	for _, L := range []int{2, MaxCompactL + 1} {
		var buf bytes.Buffer
		if err := StreamBuild(&buf, g, L, BuildOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		k, _, _, err := decodeStoreHeader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if k != KindFor(L) {
			t.Fatalf("L=%d streamed kind %v, want %v", L, k, KindFor(L))
		}
		st, err := UnmarshalStore(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(st, bfsOracle(g, L)) {
			t.Fatalf("L=%d: streamed store differs from the per-source BFS", L)
		}
	}
}

// TestBuildToFileRoundTrip: a file built by the streaming path decodes
// and pages back into stores equal to a heap build.
func TestBuildToFileRoundTrip(t *testing.T) {
	g := randomGraph(35, 0.15, 6)
	want := Build(g, 3, BuildOptions{})
	path := filepath.Join(t.TempDir(), "s.store")
	if err := BuildToFile(path, g, 3, BuildOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalStore(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(decoded, want) {
		t.Fatal("decoded streamed file differs from heap build")
	}

	paged, err := OpenPagedStore(path, NewPageCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if !Equal(paged, want) {
		t.Fatal("paged streamed file differs from heap build")
	}
}

// TestStreamBlocks: the block partition covers [0, n) exactly once, in
// order, with every block non-empty, made of whole 64-source batches,
// and holding a batch per worker unless it is the last.
func TestStreamBlocks(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000, 5000} {
		for _, workers := range []int{1, 3} {
			blocks := streamBlocks(n, workers)
			next := 0
			for i, b := range blocks {
				if b[0] != next || b[1] <= b[0] || b[0]%batchSize != 0 {
					t.Fatalf("n=%d: bad block %v after %d", n, b, next)
				}
				if i < len(blocks)-1 && b[1]-b[0] < workers*batchSize {
					t.Fatalf("n=%d workers=%d: block %v holds fewer batches than workers", n, workers, b)
				}
				next = b[1]
			}
			if next != n {
				t.Fatalf("n=%d: blocks end at %d", n, next)
			}
		}
	}
}
