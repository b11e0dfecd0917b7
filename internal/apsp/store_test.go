package apsp

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixture"
	"repro/internal/graph"
)

// TestCompactRejectsOversizedL is the constructor bound: a cell must
// hold L+1, so NewStore rejects L > MaxCompactL for KindCompact and
// L > MaxL for KindPacked, and StreamBuild refuses L > MaxL.
func TestCompactRejectsOversizedL(t *testing.T) {
	for k, top := range map[Kind]int{KindCompact: MaxCompactL, KindPacked: MaxL} {
		if m := NewStore(4, top, k); m.Far() != top+1 {
			t.Fatalf("%v: L=%d must be accepted, Far=%d", k, top, m.Far())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v constructor accepted L=%d", k, top+1)
				}
			}()
			NewStore(4, top+1, k)
		}()
	}
	if err := StreamBuild(io.Discard, graph.New(4), MaxL+1, BuildOptions{}); err == nil {
		t.Errorf("StreamBuild accepted L=%d", MaxL+1)
	}
}

// TestPackedAcceptsOversizedL: the int32 layout reaches past
// MaxCompactL and is the backing KindFor derives there.
func TestPackedAcceptsOversizedL(t *testing.T) {
	L := MaxCompactL + 10
	if m := NewStore(4, L, KindPacked); m.Far() != L+1 {
		t.Fatalf("packed store mangled Far: %d", m.Far())
	}
	if got := KindFor(L); got != KindPacked {
		t.Fatalf("KindFor(%d) = %v, want packed", L, got)
	}
	if got := KindFor(MaxCompactL); got != KindCompact {
		t.Fatalf("KindFor(%d) = %v, want compact", MaxCompactL, got)
	}
	// Build and both oracles derive the packed backing rather than panicking.
	g := fixture.Figure1()
	for name, m := range map[string]Store{"Build": build(g, L), "LPrunedFW": LPrunedFW(g, L), "PointerFW": PointerFW(g, L)} {
		if KindOf(m) != KindPacked {
			t.Fatalf("%s built %v beyond MaxCompactL, want packed", name, KindOf(m))
		}
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"": KindCompact, "compact": KindCompact, "uint8": KindCompact,
		"packed": KindPacked, "int32": KindPacked,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("sparse"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{
		"": EngineAuto, "auto": EngineAuto, "bfs": EngineBFS,
		"fw": EngineFW, "pointer": EnginePointer, "bitbfs": EngineBit,
	} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEngine("dijkstra"); err == nil {
		t.Error("ParseEngine accepted unknown name")
	}
}

// TestEnginesAgreeAcrossStores is the cross-validation: the sweep and
// the oracles, copied into every backing, produce the identical matrix.
func TestEnginesAgreeAcrossStores(t *testing.T) {
	g := fixture.Figure1()
	for L := 1; L <= 4; L++ {
		ref := FromClassic(ClassicFW(g), L)
		for _, k := range kinds {
			for name, m := range map[string]Store{
				"Build":     asKind(build(g, L), k),
				"LPrunedFW": asKind(LPrunedFW(g, L), k),
				"PointerFW": asKind(PointerFW(g, L), k),
				"Parallel4": asKind(Build(g, L, BuildOptions{Workers: 4}), k),
			} {
				if KindOf(m) != k {
					t.Errorf("L=%d %s/%v: wrong backing %v", L, name, k, KindOf(m))
				}
				if !Equal(m, ref) {
					t.Errorf("L=%d: %s on %v store disagrees with classic FW", L, name, k)
				}
			}
		}
	}
}

// TestPropertyStoresAgreeOnRandomGraphs: compact and packed copies of
// the same engine's store are entry-for-entry identical on random
// graphs.
func TestPropertyStoresAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(16)
		p := 0.05 + rng.Float64()*0.3
		L := 1 + rng.Intn(4)
		g := randomGraph(n, p, seed)
		return Equal(build(g, L), asKind(build(g, L), KindPacked)) &&
			Equal(asKind(LPrunedFW(g, L), KindCompact), asKind(LPrunedFW(g, L), KindPacked)) &&
			Equal(asKind(PointerFW(g, L), KindCompact), asKind(PointerFW(g, L), KindPacked))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeltasAgreeAcrossStores: the insertion delta and the
// removal recomputation report identical change sets on both backings,
// keeping the incremental paths bit-for-bit cross-validated.
func TestPropertyDeltasAgreeAcrossStores(t *testing.T) {
	type change struct{ x, y, oldD, newD int }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		L := 1 + rng.Intn(3)
		g := randomGraph(n, 0.25, seed)
		mc := build(g, L)
		mp := asKind(build(g, L), KindPacked)

		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			var cc, cp []change
			InsertionDelta(mc, u, v, func(x, y, oldD, newD int) {
				cc = append(cc, change{x, y, oldD, newD})
			})
			InsertionDelta(mp, u, v, func(x, y, oldD, newD int) {
				cp = append(cp, change{x, y, oldD, newD})
			})
			if len(cc) != len(cp) {
				return false
			}
			for i := range cc {
				if cc[i] != cp[i] {
					return false
				}
			}
		}
		if g.M() == 0 {
			return true
		}
		e := g.Edges()[rng.Intn(g.M())]
		var rc, rp []change
		RemovalDelta(g, mc, e.U, e.V, nil, func(x, y, oldD, newD int) {
			rc = append(rc, change{x, y, oldD, newD})
		})
		RemovalDelta(g, mp, e.U, e.V, nil, func(x, y, oldD, newD int) {
			rp = append(rp, change{x, y, oldD, newD})
		})
		if len(rc) != len(rp) {
			return false
		}
		for i := range rc {
			if rc[i] != rp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDispatch: Build dispatches on L alone — the compact backing
// up to MaxCompactL, packed above it — at every worker count, and
// always produces the reference matrix.
func TestBuildDispatch(t *testing.T) {
	g := fixture.Figure1()
	for _, L := range []int{2, MaxCompactL, MaxCompactL + 1} {
		ref := FromClassic(ClassicFW(g), L)
		for _, w := range []int{0, 1, 4} {
			m := Build(g, L, BuildOptions{Workers: w})
			if KindOf(m) != KindFor(L) {
				t.Errorf("Build(L=%d): backing %v, want %v", L, KindOf(m), KindFor(L))
			}
			if !Equal(m, ref) {
				t.Errorf("Build(L=%d, workers=%d) disagrees with reference", L, w)
			}
		}
	}
}
