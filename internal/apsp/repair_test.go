package apsp

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// applyDiff clones g, applies d, and fails the test on any error — the
// repair tests always construct diffs that are valid for their graph.
func applyDiff(t testing.TB, g *graph.Graph, d graph.Diff) *graph.Graph {
	t.Helper()
	child := g.Clone()
	if err := d.Apply(child); err != nil {
		t.Fatal(err)
	}
	return child
}

// validDiff draws up to maxAdd absent edges and maxDel present edges
// from g, deterministic in rng.
func validDiff(t testing.TB, rng *rand.Rand, g *graph.Graph, maxAdd, maxDel int) graph.Diff {
	t.Helper()
	n := g.N()
	var adds, removes [][2]int
	seen := graph.NewEdgeSet()
	for tries := 0; len(adds) < maxAdd && tries < 50*maxAdd; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) || !seen.Add(graph.E(u, v)) {
			continue
		}
		adds = append(adds, [2]int{u, v})
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := 0; i < maxDel && i < len(edges); i++ {
		removes = append(removes, [2]int{edges[i].U, edges[i].V})
	}
	d, err := graph.NewDiff(n, adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRepairStoreMatchesRebuild: across random graphs, random mixed
// diffs, and several L values, the repaired store is cell-for-cell
// identical to a from-scratch build of the child — including pairs
// that become disconnected (Far) and pairs newly pulled under the cap.
func TestRepairStoreMatchesRebuild(t *testing.T) {
	for _, L := range []int{1, 2, 3, 5} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(100*int64(L) + seed))
			g := randomGraph(60, 0.06, seed)
			base := Build(g, L, BuildOptions{})
			d := validDiff(t, rng, g, 4, 3)
			child := applyDiff(t, g, d)

			// These small sparse graphs blow the default edit and
			// blast-radius budgets (an L=3 ball covers much of a
			// 60-vertex graph); open the knobs — this test is about
			// correctness, not the cost heuristic.
			repaired, ok := RepairStore(base, child, d, RepairOptions{MaxEditFraction: 0.5, MaxRowFraction: 1})
			if !ok {
				t.Fatalf("L=%d seed=%d: repair of %v bailed", L, seed, d)
			}
			want := eachPairStream(Build(child, L, BuildOptions{}))
			got := eachPairStream(repaired)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("L=%d seed=%d diff=%v: repaired store diverges from rebuild at flat index %d", L, seed, d, k)
				}
			}
			// The parent store must not have been written through.
			if ov, isOv := repaired.(*Overlay); isOv && ov.Base() != base {
				t.Fatalf("L=%d seed=%d: overlay does not share the parent store", L, seed)
			}
			fresh := eachPairStream(Build(g, L, BuildOptions{}))
			if parentNow := eachPairStream(base); len(parentNow) != len(fresh) {
				t.Fatalf("parent store resized")
			} else {
				for k := range fresh {
					if parentNow[k] != fresh[k] {
						t.Fatalf("L=%d seed=%d: repair mutated the parent store", L, seed)
					}
				}
			}
		}
	}
}

// TestRepairStoreAddsOnlyAndRemovesOnly: the two phases are exercised
// in isolation, including an edge removal that disconnects a vertex.
func TestRepairStoreAddsOnlyAndRemovesOnly(t *testing.T) {
	const L = 3
	// Path 0-1-2-3-4 plus a pendant 5 off vertex 0.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}} {
		g.AddEdge(e[0], e[1])
	}
	base := Build(g, L, BuildOptions{})

	// Adds only: shortcut 0-4 pulls far pairs under the cap.
	d, err := graph.NewDiff(6, [][2]int{{0, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	child := applyDiff(t, g, d)
	repaired, ok := RepairStore(base, child, d, RepairOptions{})
	if !ok {
		t.Fatal("adds-only repair bailed")
	}
	if got, want := eachPairStream(repaired), eachPairStream(Build(child, L, BuildOptions{})); !equalInts(got, want) {
		t.Fatal("adds-only repair diverges from rebuild")
	}

	// Removes only: cutting 0-5 disconnects 5 entirely (all Far).
	d, err = graph.NewDiff(6, nil, [][2]int{{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	child = applyDiff(t, g, d)
	repaired, ok = RepairStore(base, child, d, RepairOptions{})
	if !ok {
		t.Fatal("removes-only repair bailed")
	}
	if got, want := eachPairStream(repaired), eachPairStream(Build(child, L, BuildOptions{})); !equalInts(got, want) {
		t.Fatal("removes-only repair diverges from rebuild")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRepairStoreBailsAndRejects: oversized diffs and dimensionally
// inconsistent inputs return ok=false, never a wrong store or a panic.
func TestRepairStoreBailsAndRejects(t *testing.T) {
	const L = 2
	g := randomGraph(40, 0.1, 7)
	base := Build(g, L, BuildOptions{})

	// Oversized: more edits than MaxEditFraction*n allows.
	rng := rand.New(rand.NewSource(7))
	big := validDiff(t, rng, g, 12, 0)
	child := applyDiff(t, g, big)
	if _, ok := RepairStore(base, child, big, RepairOptions{MaxEditFraction: 0.1}); ok {
		t.Fatalf("repair accepted a %d-edit diff with a %d-edit budget", big.Size(), 4)
	}

	// Wrong child dimensions.
	small := graph.New(10)
	d, _ := graph.NewDiff(40, [][2]int{{0, 1}}, nil)
	if _, ok := RepairStore(base, small, d, RepairOptions{}); ok {
		t.Fatal("repair accepted a child with the wrong vertex count")
	}
	dBad, _ := graph.NewDiff(39, [][2]int{{0, 1}}, nil)
	if _, ok := RepairStore(base, g, dBad, RepairOptions{}); ok {
		t.Fatal("repair accepted a diff with the wrong vertex count")
	}
	if _, ok := RepairStore(base, nil, d, RepairOptions{}); ok {
		t.Fatal("repair accepted a nil child")
	}

	// Empty diff: a trivially valid overlay over base.
	empty, err := graph.NewDiff(40, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := RepairStore(base, g, empty, RepairOptions{})
	if !ok {
		t.Fatal("empty diff bailed")
	}
	if !equalInts(eachPairStream(s), eachPairStream(base)) {
		t.Fatal("empty-diff repair changed the store")
	}
}

// TestRepairStoreCompactThresholds: a depth-1 chain with CompactDepth=1
// hands back a heap store rather than another overlay layer, and the
// dirty-fraction trigger does the same on a write-heavy diff.
func TestRepairStoreCompactThresholds(t *testing.T) {
	const L = 3
	g := randomGraph(50, 0.08, 3)
	base := Build(g, L, BuildOptions{})
	rng := rand.New(rand.NewSource(3))
	d := validDiff(t, rng, g, 2, 2)
	child := applyDiff(t, g, d)

	// Depth over threshold: CompactDepth=1 means the depth-1 result
	// itself is over the line only once stacked — repair a second diff
	// on top of the first overlay and require a heap store back.
	first, ok := RepairStore(base, child, d, RepairOptions{CompactDepth: 2, MaxEditFraction: 0.5, MaxRowFraction: 1})
	if !ok {
		t.Fatal("first repair bailed")
	}
	if _, isOv := first.(*Overlay); !isOv {
		t.Fatalf("first repair compacted below threshold: %T", first)
	}
	rng2 := rand.New(rand.NewSource(4))
	d2 := validDiff(t, rng2, child, 2, 2)
	grand := applyDiff(t, child, d2)
	second, ok := RepairStore(first, grand, d2, RepairOptions{CompactDepth: 1, MaxEditFraction: 0.5, MaxRowFraction: 1})
	if !ok {
		t.Fatal("second repair bailed")
	}
	if _, isOv := second.(*Overlay); isOv {
		t.Fatal("depth threshold did not compact the chain")
	}
	if got, want := eachPairStream(second), eachPairStream(Build(grand, L, BuildOptions{})); !equalInts(got, want) {
		t.Fatal("compacted chain diverges from rebuild of the grandchild")
	}

	// Dirty-fraction trigger: an absurdly low threshold compacts even a
	// small diff's writes.
	tiny, ok := RepairStore(base, child, d, RepairOptions{CompactDirtyFraction: 1e-9, MaxEditFraction: 0.5, MaxRowFraction: 1})
	if !ok {
		t.Fatal("repair bailed")
	}
	if _, isOv := tiny.(*Overlay); isOv {
		t.Fatal("dirty threshold did not compact")
	}
}

// TestOverlayDepth pins the chain-depth accounting Compact thresholds
// key off.
func TestOverlayDepth(t *testing.T) {
	g := randomGraph(20, 0.2, 1)
	base := Build(g, 2, BuildOptions{})
	o1 := NewOverlay(base)
	o2 := NewOverlay(o1)
	o3 := NewOverlay(o2)
	for want, o := range map[int]*Overlay{1: o1, 2: o2, 3: o3} {
		if got := o.Depth(); got != want {
			t.Fatalf("Depth = %d, want %d", got, want)
		}
	}
}

// TestRepairBackingsEquivalenceMatrix is the dynamic-graph row of the
// backings matrix: for every engine and every base backing — compact
// and packed heap stores, their mapped and paged file views, and an
// overlay chain — the store repaired from the parent serializes
// byte-identically to a from-scratch build of the child. Byte identity
// of MarshalStore is stronger than cell equality: it also pins the
// kind folding (a repaired view of a compact snapshot snapshots as
// compact again).
func TestRepairBackingsEquivalenceMatrix(t *testing.T) {
	const L = 3
	dir := t.TempDir()
	g := rmatGraph(t, 150, 450, 99)
	rng := rand.New(rand.NewSource(99))
	d := validDiff(t, rng, g, 3, 2)
	child := applyDiff(t, g, d)

	check := func(name string, baseStore Store, want []byte) {
		t.Helper()
		repaired, ok := RepairStore(baseStore, child, d, RepairOptions{})
		if !ok {
			t.Errorf("%s: repair bailed", name)
			return
		}
		got, err := MarshalStore(repaired)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: repaired snapshot differs from rebuilt child snapshot", name)
		}
	}

	for eng, run := range map[string]func(*graph.Graph, int) MutableStore{"sweep": build, "fw": LPrunedFW, "pointer": PointerFW} {
		for _, kind := range []Kind{KindCompact, KindPacked} {
			want, err := MarshalStore(asKind(run(child, L), kind))
			if err != nil {
				t.Fatal(err)
			}
			tag := eng + "/" + kind.String()

			heap := asKind(run(g, L), kind)
			check(tag+"/heap", heap, want)
			check(tag+"/overlay", NewOverlay(heap), want)

			path := filepath.Join(dir, eng+"-"+kind.String()+".store")
			snapshotFile(t, path, g, L, kind)
			mapped, err := OpenMappedStore(path)
			if err != nil {
				t.Fatal(err)
			}
			check(tag+"/mapped", mapped, want)
			paged, err := OpenPagedStore(path, NewPageCache(pageSize))
			if err != nil {
				t.Fatal(err)
			}
			check(tag+"/paged", paged, want)
			mapped.Close()
			paged.Close()
		}
	}
}

// TestRepairChainOnRepairedOverlay: two successive diffs repaired one
// on top of the other (parent → child → grandchild) serialize exactly
// like a from-scratch build of the grandchild, for both a heap and a
// mapped base at the bottom of the chain.
func TestRepairChainOnRepairedOverlay(t *testing.T) {
	const L = 3
	dir := t.TempDir()
	g := rmatGraph(t, 150, 450, 17)
	rng := rand.New(rand.NewSource(17))
	d1 := validDiff(t, rng, g, 3, 2)
	child := applyDiff(t, g, d1)
	d2 := validDiff(t, rng, child, 3, 2)
	grand := applyDiff(t, child, d2)

	want, err := MarshalStore(Build(grand, L, BuildOptions{}))
	if err != nil {
		t.Fatal(err)
	}

	bases := map[string]Store{"heap": Build(g, L, BuildOptions{})}
	path := filepath.Join(dir, "chain.store")
	if err := BuildToFile(path, g, L, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	bases["mapped"] = mapped

	for name, base := range bases {
		mid, ok := RepairStore(base, child, d1, RepairOptions{})
		if !ok {
			t.Fatalf("%s: first repair bailed", name)
		}
		top, ok := RepairStore(mid, grand, d2, RepairOptions{})
		if !ok {
			t.Fatalf("%s: second repair bailed", name)
		}
		got, err := MarshalStore(top)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: repaired chain snapshot differs from grandchild rebuild", name)
		}
	}
}
