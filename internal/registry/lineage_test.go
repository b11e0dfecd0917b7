package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apsp"
)

// lineageParentEdges is a 8-vertex parent with enough structure for
// diffs to matter: a cycle plus chords.
func lineageParentEdges() (int, [][2]int) {
	return 8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 7}, {1, 4}, {2, 6}}
}

// TestMutateDigestRule: the child registered through Mutate has
// exactly the content address a full registration of its edge set
// would get — mutating and re-uploading are two spellings of the same
// registration, which is what makes the digest derivable from
// (parent, diff).
func TestMutateDigestRule(t *testing.T) {
	r := New(Config{})
	n, edges := lineageParentEdges()
	parent, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	child, created, err := r.Mutate(parent, [][2]int{{3, 7}, {0, 2}}, [][2]int{{1, 4}})
	if err != nil || !created {
		t.Fatalf("Mutate: created=%v err=%v", created, err)
	}
	lin := child.Lineage()
	if lin == nil || lin.Parent != parent.ID() {
		t.Fatalf("child lineage = %+v, want parent %s", lin, parent.ID())
	}
	if len(lin.Adds) != 2 || lin.Adds[0] != [2]int{0, 2} || lin.Adds[1] != [2]int{3, 7} {
		t.Fatalf("lineage adds not canonical: %v", lin.Adds)
	}

	// A from-scratch registry registering the child's full edge set
	// must produce the identical id.
	r2 := New(Config{})
	direct, _, err := r2.Put(n, child.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if direct.ID() != child.ID() {
		t.Fatalf("mutated id %s != directly registered id %s", child.ID(), direct.ID())
	}
	if direct.Lineage() != nil {
		t.Fatal("directly registered graph must have no lineage")
	}

	// Mutating again with the same diff resolves to the same entry.
	again, created, err := r.Mutate(parent, [][2]int{{0, 2}, {3, 7}}, [][2]int{{4, 1}})
	if err != nil || created || again != child {
		t.Fatalf("repeat Mutate: created=%v entry-same=%v err=%v", created, again == child, err)
	}
	if got := r.Stats().Mutations; got != 1 {
		t.Fatalf("Mutations = %d, want 1 (dedup must not count)", got)
	}
}

// TestMutateValidation: diffs that do not apply to the parent are
// rejected with the offending edge named, and nothing is registered.
func TestMutateValidation(t *testing.T) {
	r := New(Config{})
	n, edges := lineageParentEdges()
	parent, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		adds    [][2]int
		removes [][2]int
		want    string
	}{
		{"add present", [][2]int{{4, 1}}, nil, "cannot add edge [1, 4]: already present"},
		{"remove absent", nil, [][2]int{{0, 3}}, "cannot remove edge [0, 3]: not present"},
		{"out of range", [][2]int{{0, 99}}, nil, "out of range"},
		{"self-loop", [][2]int{{2, 2}}, nil, "self-loop"},
		{"overlap", [][2]int{{0, 3}}, [][2]int{{0, 3}}, "appears in both"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := r.Mutate(parent, tc.adds, tc.removes)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	if r.Len() != 1 {
		t.Fatalf("rejected mutations registered graphs: len=%d", r.Len())
	}
}

// TestMutateRepairHydration: with the parent's store warm, the child's
// first Distances call repairs instead of building — zero APSP builds,
// and the repaired store is cell-identical to a from-scratch build of
// the child.
func TestMutateRepairHydration(t *testing.T) {
	r := New(Config{})
	n, edges := lineageParentEdges()
	parent, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	parent.Store(3) // warm: 1 build
	child, _, err := r.Mutate(parent, [][2]int{{3, 7}}, [][2]int{{2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := child.Store(3)
	stats := r.Stats()
	if stats.Builds != 1 {
		t.Fatalf("Builds = %d after repair hydration, want 1 (parent only)", stats.Builds)
	}
	if stats.Repairs != 1 || stats.RepairFallbacks != 0 {
		t.Fatalf("Repairs=%d Fallbacks=%d, want 1/0", stats.Repairs, stats.RepairFallbacks)
	}
	want := apsp.Build(child.raw, 3, apsp.BuildOptions{})
	if !apsp.Equal(st, want) {
		t.Fatal("repaired store differs from a rebuild of the child")
	}

	// Second call: plain cache hit, no second repair.
	if _, reused := child.Store(3); !reused {
		t.Fatal("second Distances call did not reuse")
	}
	if got := r.Stats().Repairs; got != 1 {
		t.Fatalf("Repairs = %d after cache hit, want still 1", got)
	}
}

// TestMutateRepairFallbacks: a cold parent store, a deleted parent,
// and DisableRepair all fall back to a full build — correct results,
// counted fallbacks (except when disabled, which is not a fallback).
func TestMutateRepairFallbacks(t *testing.T) {
	n, edges := lineageParentEdges()

	t.Run("cold parent", func(t *testing.T) {
		r := New(Config{})
		parent, _, _ := r.Put(n, edges)
		child, _, err := r.Mutate(parent, [][2]int{{3, 7}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		child.Store(3)
		s := r.Stats()
		if s.Builds != 1 || s.Repairs != 0 || s.RepairFallbacks != 1 {
			t.Fatalf("builds=%d repairs=%d fallbacks=%d, want 1/0/1", s.Builds, s.Repairs, s.RepairFallbacks)
		}
	})

	t.Run("deleted parent", func(t *testing.T) {
		r := New(Config{})
		parent, _, _ := r.Put(n, edges)
		parent.Store(3)
		child, _, err := r.Mutate(parent, [][2]int{{3, 7}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Delete(parent.ID()) {
			t.Fatal("Delete(parent) reported absent")
		}
		// The child keeps serving: full edge set, fresh build.
		if _, ok := r.Get(child.ID()); !ok {
			t.Fatal("child vanished with its parent")
		}
		st, _ := child.Store(3)
		if !apsp.Equal(st, apsp.Build(child.raw, 3, apsp.BuildOptions{})) {
			t.Fatal("post-delete child store wrong")
		}
		s := r.Stats()
		if s.Repairs != 0 || s.RepairFallbacks != 1 {
			t.Fatalf("repairs=%d fallbacks=%d, want 0/1", s.Repairs, s.RepairFallbacks)
		}
		if child.Lineage() == nil {
			t.Fatal("lineage provenance lost on parent delete")
		}
	})

	t.Run("disabled", func(t *testing.T) {
		r := New(Config{DisableRepair: true})
		parent, _, _ := r.Put(n, edges)
		parent.Store(3)
		child, _, err := r.Mutate(parent, [][2]int{{3, 7}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		child.Store(3)
		s := r.Stats()
		if s.Builds != 2 || s.Repairs != 0 || s.RepairFallbacks != 0 {
			t.Fatalf("builds=%d repairs=%d fallbacks=%d, want 2/0/0", s.Builds, s.Repairs, s.RepairFallbacks)
		}
	})
}

// TestLineagePersistRoundTrip: a restart recovers the child with its
// lineage record, and the child's store — persisted from the repaired
// overlay — comes back byte-for-byte, serving with zero builds.
func TestLineagePersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n, edges := lineageParentEdges()

	r1 := New(Config{Dir: dir})
	parent, _, _ := r1.Put(n, edges)
	parent.Store(3)
	child, _, err := r1.Mutate(parent, [][2]int{{3, 7}}, [][2]int{{2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := child.Store(3)
	if _, err := os.Stat(filepath.Join(dir, lineageFile(child.ID()))); err != nil {
		t.Fatalf("lineage snapshot not written: %v", err)
	}

	r2 := New(Config{Dir: dir})
	got, ok := r2.Get(child.ID())
	if !ok {
		t.Fatal("restart lost the mutated child")
	}
	lin := got.Lineage()
	if lin == nil || lin.Parent != parent.ID() || len(lin.Adds) != 1 || len(lin.Removes) != 1 {
		t.Fatalf("recovered lineage %+v", lin)
	}
	st2, reused := got.Store(3)
	if !reused || !apsp.Equal(st1, st2) {
		t.Fatalf("child store not recovered warm (reused=%v)", reused)
	}
	p := r2.Stats().Persist
	if p.LineagesLoaded != 1 || p.Quarantined != 0 {
		t.Fatalf("persist stats %+v, want 1 lineage loaded, 0 quarantined", p)
	}

	// DELETE removes the lineage file with the graph.
	r2.Delete(child.ID())
	if _, err := os.Stat(filepath.Join(dir, lineageFile(child.ID()))); !os.IsNotExist(err) {
		t.Fatalf("lineage snapshot survived delete: %v", err)
	}
}

// TestLineageQuarantine: orphaned and tampered lineage records are
// quarantined at boot; the graphs themselves still load (a bad
// provenance note must not take down a valid graph).
func TestLineageQuarantine(t *testing.T) {
	t.Run("orphan", func(t *testing.T) {
		dir := t.TempDir()
		fake := strings.Repeat("ab", 32)
		lin := &Lineage{Parent: strings.Repeat("cd", 32), Adds: [][2]int{{0, 1}}}
		if err := os.WriteFile(filepath.Join(dir, lineageFile(fake)), encodeLineageSnapshot(lin), 0o644); err != nil {
			t.Fatal(err)
		}
		r := New(Config{Dir: dir})
		if p := r.Stats().Persist; p.Quarantined != 1 || p.LineagesLoaded != 0 {
			t.Fatalf("persist stats %+v, want orphan quarantined", p)
		}
	})

	t.Run("tampered diff", func(t *testing.T) {
		dir := t.TempDir()
		n, edges := lineageParentEdges()
		r1 := New(Config{Dir: dir})
		parent, _, _ := r1.Put(n, edges)
		child, _, err := r1.Mutate(parent, [][2]int{{3, 7}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the lineage with a diff that does not reproduce the
		// child's digest from the parent.
		forged := &Lineage{Parent: parent.ID(), Adds: [][2]int{{0, 3}}}
		if err := os.WriteFile(filepath.Join(dir, lineageFile(child.ID())), encodeLineageSnapshot(forged), 0o644); err != nil {
			t.Fatal(err)
		}
		r2 := New(Config{Dir: dir})
		got, ok := r2.Get(child.ID())
		if !ok {
			t.Fatal("child graph must survive a forged lineage record")
		}
		if got.Lineage() != nil {
			t.Fatal("forged lineage was attached")
		}
		if p := r2.Stats().Persist; p.Quarantined != 1 {
			t.Fatalf("persist stats %+v, want forged record quarantined", p)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		n, edges := lineageParentEdges()
		r1 := New(Config{Dir: dir})
		parent, _, _ := r1.Put(n, edges)
		child, _, err := r1.Mutate(parent, [][2]int{{3, 7}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		full := filepath.Join(dir, lineageFile(child.ID()))
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}
		r2 := New(Config{Dir: dir})
		if p := r2.Stats().Persist; p.Quarantined != 1 {
			t.Fatalf("persist stats %+v, want truncated record quarantined", p)
		}
	})
}

// corruptLineages returns a valid lineage record (two adds, one
// remove) and a table of corruptions of it.
func corruptLineages() (valid []byte, cases map[string][]byte) {
	valid = encodeLineageSnapshot(&Lineage{
		Parent:  strings.Repeat("cd", 32),
		Adds:    [][2]int{{0, 3}, {2, 7}},
		Removes: [][2]int{{1, 2}},
	})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	return valid, map[string][]byte{
		"empty":             nil,
		"truncated header":  valid[:lineageHeaderLen-1],
		"truncated payload": valid[:len(valid)-5],
		"trailing data":     append(append([]byte(nil), valid...), 0),
		"bad magic":         mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":       mutate(func(b []byte) { b[4] = 9 }),
		"parent not hex":    mutate(func(b []byte) { b[5] = 'z' }),
		"add count too big": mutate(func(b []byte) { b[69] = 0xff }),
		"huge remove count": mutate(func(b []byte) { b[84] = 0xff }),
		"endpoint overflow": mutate(func(b []byte) { b[lineageHeaderLen+7] = 0x80 }),
	}
}

// TestDecodeLineageRejectsCorruptInput: every corruption is an error,
// never a panic, and the valid record round-trips.
func TestDecodeLineageRejectsCorruptInput(t *testing.T) {
	valid, cases := corruptLineages()
	if _, err := decodeLineageSnapshot(valid); err != nil {
		t.Fatalf("valid lineage rejected: %v", err)
	}
	for name, data := range cases {
		if _, err := decodeLineageSnapshot(data); err == nil {
			t.Errorf("%s: corrupt lineage accepted", name)
		}
	}
}

// FuzzDecodeLineageSnapshot drives the LOPL decoder the registry runs
// over lineage files at boot. It must never panic, and decoding is a
// strict inverse, so every record it accepts re-encodes to the same
// bytes.
func FuzzDecodeLineageSnapshot(f *testing.F) {
	valid, cases := corruptLineages()
	f.Add(valid)
	for _, data := range cases {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lin, err := decodeLineageSnapshot(data)
		if err != nil {
			return
		}
		if out := encodeLineageSnapshot(lin); !bytes.Equal(out, data) {
			t.Fatalf("accepted lineage re-encodes differently: %+v", lin)
		}
	})
}

// TestMutateChainRepairs: each generation repairs off the previous
// one — a chain of diffs never rebuilds as long as stores stay warm.
func TestMutateChainRepairs(t *testing.T) {
	r := New(Config{})
	n, edges := lineageParentEdges()
	g, _, err := r.Put(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.Store(3)
	diffs := []struct{ adds, removes [][2]int }{
		{[][2]int{{3, 7}}, nil},
		{[][2]int{{0, 4}}, [][2]int{{3, 7}}},
		{nil, [][2]int{{1, 2}}},
	}
	for i, d := range diffs {
		g, _, err = r.Mutate(g, d.adds, d.removes)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		st, _ := g.Store(3)
		if !apsp.Equal(st, apsp.Build(g.raw, 3, apsp.BuildOptions{})) {
			t.Fatalf("step %d: repaired store diverges", i)
		}
	}
	s := r.Stats()
	if s.Builds != 1 || s.Repairs != 3 || s.RepairFallbacks != 0 {
		t.Fatalf("builds=%d repairs=%d fallbacks=%d, want 1/3/0", s.Builds, s.Repairs, s.RepairFallbacks)
	}
}
