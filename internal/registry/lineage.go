// Mutation-first registration: deriving child graphs from registered
// parents by diff, with lineage tracked and distance stores repaired
// instead of rebuilt.
//
// Mutate is the dynamic-graph counterpart of Put: instead of shipping
// a full edge list, the caller names a registered parent and a diff
// (edges to add, edges to remove). The child's canonical edge set is
// derived by an O(m + k) sorted merge of the parent's canonical edges
// with the diff, so its content address follows mechanically from
// (parent digest, diff) — the digest rule the lineage integrity check
// and the client's local id prediction both rely on. The child is a
// full first-class registered graph (queryable, persistable, itself
// mutable); the lineage record is what lets store hydration repair the
// parent's cached distance store through apsp.RepairStore rather than
// paying the O(n·m) rebuild.
package registry

import (
	"container/list"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	lopacity "repro"
	"repro/internal/apsp"
	"repro/internal/graph"
)

// Lineage records how a graph was derived: the parent's content
// address plus the canonical diff that produced this graph from it.
// Slices are shared and must be treated as read-only.
type Lineage struct {
	Parent  string
	Adds    [][2]int
	Removes [][2]int
}

// Lineage returns the graph's derivation record, or nil for a graph
// registered directly via Put. The record survives deletion of the
// parent — it is provenance, not a dependency.
func (g *Graph) Lineage() *Lineage { return g.lineage }

// Mutate registers the child graph obtained by applying the diff
// (adds, removes) to parent, returning the existing entry when the
// resulting canonical edge set is already registered (created =
// false; the existing entry's lineage, if any, is left untouched).
// The diff is validated against the parent: malformed edges, edges
// added that the parent already has, and edges removed that it lacks
// are all errors, with the offending edge named.
//
// The child is content-addressed exactly as if its full edge list had
// been Put — mutating and re-uploading are two spellings of the same
// registration — but carries a Lineage record that lets its distance
// stores hydrate by repairing the parent's instead of rebuilding.
func (r *Registry) Mutate(parent *Graph, adds, removes [][2]int) (g *Graph, created bool, err error) {
	d, err := graph.NewDiff(parent.raw.N(), adds, removes)
	if err != nil {
		return nil, false, err
	}
	childEdges, err := mergeCanonicalEdges(parent.edges, d)
	if err != nil {
		return nil, false, err
	}
	n := parent.raw.N()
	id := Digest(n, childEdges)
	r.mu.Lock()
	if el, ok := r.entries[id]; ok {
		r.order.MoveToFront(el)
		existing := el.Value.(*Graph)
		r.mu.Unlock()
		return existing, false, nil
	}
	r.mu.Unlock()

	// Build outside the lock, like Put: adjacency construction must not
	// block concurrent lookups.
	raw := graph.FromPairs(n, childEdges)
	ent := &Graph{
		id:    id,
		edges: childEdges,
		raw:   raw,
		pub:   lopacity.WrapGraph(raw),
		reg:   r,
		lineage: &Lineage{
			Parent:  parent.id,
			Adds:    edgePairs(d.Adds),
			Removes: edgePairs(d.Removes),
		},
		stores:     make(map[int]*list.Element),
		storeOrder: list.New(),
		maxStores:  r.cfg.MaxStoresPerGraph,
	}
	r.mu.Lock()
	if el, ok := r.entries[id]; ok {
		r.order.MoveToFront(el)
		existing := el.Value.(*Graph)
		r.mu.Unlock()
		return existing, false, nil
	}
	for r.order.Len() >= r.cfg.MaxGraphs {
		r.dropLocked(r.order.Back(), true)
	}
	r.entries[id] = r.order.PushFront(ent)
	r.mu.Unlock()
	r.mutations.Add(1)
	// Write-through with the same delete-race undo as Put, extended to
	// the lineage file: the pair must land or vanish together, or a
	// restart would recover a child with forged-looking provenance.
	if r.persist != nil {
		r.persist.saveGraph(ent)
		r.persist.saveLineage(ent.id, ent.lineage)
		r.mu.Lock()
		_, still := r.entries[id]
		r.mu.Unlock()
		if !still {
			r.persist.deleteFile(graphFile(id))
			r.persist.deleteFile(lineageFile(id))
		}
	}
	return ent, true, nil
}

// edgePairs converts a canonical []graph.Edge to the [][2]int shape
// the registry stores and serializes.
func edgePairs(es []graph.Edge) [][2]int {
	if len(es) == 0 {
		return nil
	}
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

func pairLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// mergeCanonicalEdges applies a canonical diff to a canonical edge set
// in one O(m + k) three-way merge, preserving sortedness — the step
// that makes a child's digest derivable from (parent, diff) without
// re-sorting. It verifies applicability along the way: a remove that
// is not present or an add that already is fails with the edge named.
func mergeCanonicalEdges(parent [][2]int, d graph.Diff) ([][2]int, error) {
	out := make([][2]int, 0, len(parent)+len(d.Adds)-len(d.Removes))
	ai, ri := 0, 0
	emitAddsBefore := func(limit [2]int, bounded bool) error {
		for ai < len(d.Adds) {
			ae := [2]int{d.Adds[ai].U, d.Adds[ai].V}
			if bounded && !pairLess(ae, limit) {
				if ae == limit {
					return fmt.Errorf("registry: cannot add edge [%d, %d]: already present in parent", ae[0], ae[1])
				}
				return nil
			}
			out = append(out, ae)
			ai++
		}
		return nil
	}
	for _, e := range parent {
		if ri < len(d.Removes) {
			re := [2]int{d.Removes[ri].U, d.Removes[ri].V}
			if pairLess(re, e) {
				return nil, fmt.Errorf("registry: cannot remove edge [%d, %d]: not present in parent", re[0], re[1])
			}
			if re == e {
				ri++
				continue
			}
		}
		if err := emitAddsBefore(e, true); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if ri < len(d.Removes) {
		re := d.Removes[ri]
		return nil, fmt.Errorf("registry: cannot remove edge [%d, %d]: not present in parent", re.U, re.V)
	}
	if err := emitAddsBefore([2]int{}, false); err != nil {
		return nil, err
	}
	return out, nil
}

// peekStore returns the already-built store for L without counting a
// hit or miss — the repair path's parent lookup must not distort the
// cache-effectiveness counters the operator reads. Recency is still
// refreshed: a parent store feeding repairs is in active use.
func (g *Graph) peekStore(l int) (apsp.Store, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := g.stores[l]
	if !ok {
		return nil, false
	}
	g.storeOrder.MoveToFront(el)
	slot := el.Value.(*storeEntry).slot
	if !slot.ready.Load() {
		return nil, false
	}
	return slot.store, true
}

// tryRepair attempts to hydrate g's store for L by repairing the
// parent's cached store through the lineage diff. It returns nil when
// repair is not applicable (no lineage, disabled, parent or its store
// gone) or when apsp.RepairStore's cost heuristics bail; the caller
// falls back to a build. Every lineage-bearing hydration that reaches
// here and cannot repair counts as a fallback, so the operator can see
// mutation children going down the cold path.
func (r *Registry) tryRepair(g *Graph, l int) apsp.Store {
	lin := g.lineage
	if lin == nil || r.cfg.DisableRepair {
		return nil
	}
	r.mu.Lock()
	el, ok := r.entries[lin.Parent]
	if ok {
		r.order.MoveToFront(el)
	}
	r.mu.Unlock()
	if !ok {
		r.repairFallbacks.Add(1)
		return nil
	}
	parent := el.Value.(*Graph)
	pst, ok := parent.peekStore(l)
	if !ok {
		r.repairFallbacks.Add(1)
		return nil
	}
	d, err := graph.NewDiff(g.raw.N(), lin.Adds, lin.Removes)
	if err != nil {
		r.repairFallbacks.Add(1)
		return nil
	}
	start := time.Now()
	st, ok := apsp.RepairStore(pst, g.raw, d, apsp.RepairOptions{})
	if !ok {
		r.repairFallbacks.Add(1)
		return nil
	}
	r.repairs.Add(1)
	r.repairMSTotal.Add(time.Since(start).Milliseconds())
	return st
}

const (
	lineageMagic   = "LOPL"
	lineageVersion = 1
	lineageSuffix  = ".lineage"
	// lineageHeaderLen is magic + version + parent digest (hex) +
	// add count + remove count.
	lineageHeaderLen = 4 + 1 + 64 + 8 + 8
)

func lineageFile(id string) string { return id + lineageSuffix }

// encodeLineageSnapshot serializes a lineage record: magic, version,
// the parent's 64-byte hex digest, then the diff's edge counts and
// endpoints as uint64 LE.
func encodeLineageSnapshot(lin *Lineage) []byte {
	buf := make([]byte, 0, lineageHeaderLen+16*(len(lin.Adds)+len(lin.Removes)))
	buf = append(buf, lineageMagic...)
	buf = append(buf, lineageVersion)
	buf = append(buf, lin.Parent...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(lin.Adds)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(lin.Removes)))
	for _, e := range lin.Adds {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e[0]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e[1]))
	}
	for _, e := range lin.Removes {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e[0]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e[1]))
	}
	return buf
}

// decodeLineageSnapshot strictly inverts encodeLineageSnapshot: any
// truncation, trailing data, malformed parent digest, or header
// inconsistency is an error.
func decodeLineageSnapshot(data []byte) (*Lineage, error) {
	if len(data) < lineageHeaderLen {
		return nil, fmt.Errorf("registry: lineage snapshot truncated: %d bytes < %d-byte header", len(data), lineageHeaderLen)
	}
	if string(data[:4]) != lineageMagic {
		return nil, fmt.Errorf("registry: lineage snapshot has bad magic %q", data[:4])
	}
	if data[4] != lineageVersion {
		return nil, fmt.Errorf("registry: unsupported lineage snapshot version %d (want %d)", data[4], lineageVersion)
	}
	parent := string(data[5:69])
	if raw, err := hex.DecodeString(parent); err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("registry: lineage snapshot parent %q is not a hex digest", parent)
	}
	na := binary.LittleEndian.Uint64(data[69:77])
	nr := binary.LittleEndian.Uint64(data[77:85])
	payload := data[lineageHeaderLen:]
	total := na + nr
	if na > uint64(len(payload))/16 || nr > uint64(len(payload))/16 || uint64(len(payload)) != 16*total {
		return nil, fmt.Errorf("registry: lineage snapshot payload is %d bytes, want %d for %d edits", len(payload), 16*total, total)
	}
	const maxDim = 1 << 31
	decode := func(count uint64, off int) ([][2]int, error) {
		if count == 0 {
			return nil, nil
		}
		out := make([][2]int, count)
		for i := range out {
			u := binary.LittleEndian.Uint64(payload[off+16*i:])
			v := binary.LittleEndian.Uint64(payload[off+16*i+8:])
			if u > maxDim || v > maxDim {
				return nil, fmt.Errorf("registry: lineage snapshot edge endpoints (%d, %d) out of range", u, v)
			}
			out[i] = [2]int{int(u), int(v)}
		}
		return out, nil
	}
	adds, err := decode(na, 0)
	if err != nil {
		return nil, err
	}
	removes, err := decode(nr, 16*int(na))
	if err != nil {
		return nil, err
	}
	return &Lineage{Parent: parent, Adds: adds, Removes: removes}, nil
}

// saveLineage snapshots one graph's lineage record. Failures are
// counted, not propagated, like every other snapshot write.
func (p *persister) saveLineage(id string, lin *Lineage) {
	if err := p.writeFile(lineageFile(id), encodeLineageSnapshot(lin)); err != nil {
		p.writeErrors.Add(1)
		return
	}
	p.lineageWrites.Add(1)
}

// loadLineages recovers lineage records after graphs are loaded:
// orphans (no child graph on this boot, and none left on disk by the
// capacity bound) are quarantined; records whose parent is loaded are
// integrity-checked — applying the diff to the parent's canonical
// edges must reproduce the child's digest, or the record is lying and
// is quarantined; records whose parent is gone are kept as pure
// provenance (the child still serves from its full edge set, repair
// just has nothing to start from).
func (r *Registry) loadLineages(lineageFiles []string, skipped map[string]bool) {
	p := r.persist
	for _, name := range lineageFiles {
		childID := name[:len(name)-len(lineageSuffix)]
		el, present := r.entries[childID]
		if !present {
			if skipped[childID] {
				continue // child left on disk by the capacity bound
			}
			p.quarantine(name) // orphan: its graph is gone
			continue
		}
		data, err := p.readSnapshot(name)
		if err != nil {
			p.quarantine(name)
			continue
		}
		lin, err := decodeLineageSnapshot(data)
		if err != nil {
			p.quarantine(name)
			continue
		}
		ent := el.Value.(*Graph)
		if pel, ok := r.entries[lin.Parent]; ok {
			parent := pel.Value.(*Graph)
			d, err := graph.NewDiff(parent.raw.N(), lin.Adds, lin.Removes)
			if err != nil {
				p.quarantine(name)
				continue
			}
			childEdges, err := mergeCanonicalEdges(parent.edges, d)
			if err != nil || Digest(parent.raw.N(), childEdges) != childID {
				p.quarantine(name)
				continue
			}
		}
		ent.lineage = lin
		p.lineagesLoaded++
	}
}
