// Persistence: write-through snapshots of the registry's contents.
//
// When Config.Dir is set, every registered graph's canonical edge set
// and every built distance store is snapshotted to disk, so a
// restarted server comes back holding exactly the graphs and stores it
// had — the first graph_ref opacity or anonymize query after a warm
// restart performs zero APSP builds. The layout is flat:
//
//	<dir>/<id>.graph      canonical edge set
//	<dir>/<id>.l<L>.store the built distance store for threshold L
//
// where <id> is the graph's content address; the store's backing is
// the one apsp.KindFor(L) derives. Writes are atomic
// (temp file in the same directory, then rename), misses and write
// failures are counted but never fail the request — persistence is an
// accelerator, not a dependency — and boot-time loading quarantines
// anything it cannot trust (bad magic, truncated payload, digest
// mismatch, orphaned store) by renaming it aside with a ".corrupt"
// suffix rather than failing startup.
//
// Older data dirs named stores <id>.l<L>.<engine>.<kind>.store, one
// file per engine and backing. Boot migrates them: the first legacy
// copy of each (id, L) in the derived backing is renamed to the current
// name and loaded, and every other copy is deleted — it holds the same
// cells under another name, so it is redundant, not corrupt.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/apsp"
)

const (
	graphMagic   = "LOPG"
	graphVersion = 1
	// graphHeaderLen is magic + version + n + m.
	graphHeaderLen = 4 + 1 + 8 + 8

	graphSuffix     = ".graph"
	storeSuffix     = ".store"
	corruptSuffix   = ".corrupt"
	tmpPrefix       = ".tmp-"
	maxSnapshotSize = 1 << 30 // refuse to slurp absurd files
)

// PersistStats reports the persistence layer's effectiveness: what the
// last boot recovered, and the write/delete traffic since.
type PersistStats struct {
	// Enabled reports whether a snapshot directory is configured; Dir
	// is its path.
	Enabled bool
	Dir     string
	// GraphsLoaded, StoresLoaded, and LineagesLoaded count snapshots
	// recovered at boot; Quarantined counts files set aside (renamed
	// *.corrupt) because they were corrupt, orphaned, or otherwise
	// untrustworthy — including lineage records whose diff does not
	// reproduce the child's digest from the parent.
	GraphsLoaded, StoresLoaded, LineagesLoaded, Quarantined int
	// GraphWrites, StoreWrites, and LineageWrites count successful
	// snapshot writes; WriteErrors counts failed ones (the registry
	// keeps serving); Deletes counts snapshot files removed on
	// evict/DELETE.
	GraphWrites, StoreWrites, LineageWrites, WriteErrors, Deletes int64
}

// persister owns the snapshot directory. All methods are safe for
// concurrent use; the boot-time counters are written only during load,
// before the registry is shared.
type persister struct {
	dir string

	graphsLoaded, storesLoaded, quarantined int
	lineagesLoaded                          int
	graphWrites, storeWrites, lineageWrites atomic.Int64
	writeErrors, deletes                    atomic.Int64
}

// graphFile and storeFile name the snapshot files for one graph / one
// cached store.
func graphFile(id string) string { return id + graphSuffix }

func storeFile(id string, l int) string {
	return fmt.Sprintf("%s.l%d%s", id, l, storeSuffix)
}

// parseStoreFile inverts storeFile, returning ok=false for any name
// that does not parse cleanly. It also accepts the legacy
// <id>.l<L>.<engine>.<kind>.store spelling, reporting legacy=true and
// whether the named kind is the one L derives.
func parseStoreFile(name string) (id string, l int, legacy, derived, ok bool) {
	base, found := strings.CutSuffix(name, storeSuffix)
	if !found {
		return "", 0, false, false, false
	}
	parts := strings.Split(base, ".")
	if (len(parts) != 2 && len(parts) != 4) || !strings.HasPrefix(parts[1], "l") {
		return "", 0, false, false, false
	}
	l, err := strconv.Atoi(parts[1][1:])
	if err != nil || l < 0 {
		return "", 0, false, false, false
	}
	if len(parts) == 2 {
		return parts[0], l, false, true, true
	}
	if _, err := apsp.ParseEngine(parts[2]); err != nil {
		return "", 0, false, false, false
	}
	kind, err := apsp.ParseKind(parts[3])
	if err != nil {
		return "", 0, false, false, false
	}
	return parts[0], l, true, kind == apsp.KindFor(l), true
}

// encodeGraphSnapshot serializes a canonical edge set:
// magic, version, then n, m, and each endpoint as uint64 LE.
func encodeGraphSnapshot(n int, edges [][2]int) []byte {
	buf := make([]byte, 0, graphHeaderLen+16*len(edges))
	buf = append(buf, graphMagic...)
	buf = append(buf, graphVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e[0]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e[1]))
	}
	return buf
}

// decodeGraphSnapshot strictly inverts encodeGraphSnapshot: any
// truncation, trailing data, or header inconsistency is an error.
func decodeGraphSnapshot(data []byte) (n int, edges [][2]int, err error) {
	if len(data) < graphHeaderLen {
		return 0, nil, fmt.Errorf("registry: graph snapshot truncated: %d bytes < %d-byte header", len(data), graphHeaderLen)
	}
	if string(data[:4]) != graphMagic {
		return 0, nil, fmt.Errorf("registry: graph snapshot has bad magic %q", data[:4])
	}
	if data[4] != graphVersion {
		return 0, nil, fmt.Errorf("registry: unsupported graph snapshot version %d (want %d)", data[4], graphVersion)
	}
	un := binary.LittleEndian.Uint64(data[5:13])
	um := binary.LittleEndian.Uint64(data[13:21])
	payload := data[graphHeaderLen:]
	if um > uint64(len(payload))/16 || uint64(len(payload)) != 16*um {
		return 0, nil, fmt.Errorf("registry: graph snapshot payload is %d bytes, want %d for m=%d", len(payload), 16*um, um)
	}
	const maxDim = 1 << 31
	if un > maxDim {
		return 0, nil, fmt.Errorf("registry: graph snapshot n=%d out of range", un)
	}
	edges = make([][2]int, um)
	for i := range edges {
		u := binary.LittleEndian.Uint64(payload[16*i:])
		v := binary.LittleEndian.Uint64(payload[16*i+8:])
		if u > maxDim || v > maxDim {
			return 0, nil, fmt.Errorf("registry: graph snapshot edge %d endpoints (%d, %d) out of range", i, u, v)
		}
		edges[i] = [2]int{int(u), int(v)}
	}
	return int(un), edges, nil
}

// writeFile atomically materializes name in the snapshot directory:
// write a temp file alongside, then rename over the final name.
func (p *persister) writeFile(name string, data []byte) error {
	tmp := filepath.Join(p.dir, tmpPrefix+name)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(p.dir, name))
}

// saveGraph snapshots one registered graph's canonical edge set.
// Failures are counted, not propagated: the registry keeps serving
// from memory.
func (p *persister) saveGraph(g *Graph) {
	if err := p.writeFile(graphFile(g.id), encodeGraphSnapshot(g.raw.N(), g.edges)); err != nil {
		p.writeErrors.Add(1)
		return
	}
	p.graphWrites.Add(1)
}

// saveStore snapshots one built distance store.
func (p *persister) saveStore(id string, l int, s apsp.Store) {
	data, err := apsp.MarshalStore(s)
	if err != nil {
		p.writeErrors.Add(1)
		return
	}
	if err := p.writeFile(storeFile(id, l), data); err != nil {
		p.writeErrors.Add(1)
		return
	}
	p.storeWrites.Add(1)
}

// deleteFile removes one snapshot file, counting only files actually
// removed.
func (p *persister) deleteFile(name string) {
	if err := os.Remove(filepath.Join(p.dir, name)); err == nil {
		p.deletes.Add(1)
	}
}

// quarantine renames a file it cannot trust aside so the next boot
// does not trip over it again, and the operator can inspect it.
func (p *persister) quarantine(name string) {
	full := filepath.Join(p.dir, name)
	if err := os.Rename(full, full+corruptSuffix); err != nil {
		// Renaming failed (e.g. read-only dir): best effort only; the
		// file was already rejected, so just count it.
		_ = err
	}
	p.quarantined++
}

// errSnapshotTooLarge marks a snapshot that exceeds the heap slurp
// limit. Unlike corruption, an oversized file may be perfectly valid —
// just not safe to read wholesale — so the loader skips it (leaving it
// on disk for a paged boot) instead of quarantining it.
var errSnapshotTooLarge = fmt.Errorf("registry: snapshot exceeds the %d-byte heap load limit", maxSnapshotSize)

// readSnapshot slurps one snapshot file with a size guard.
func (p *persister) readSnapshot(name string) ([]byte, error) {
	full := filepath.Join(p.dir, name)
	fi, err := os.Stat(full)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxSnapshotSize {
		return nil, fmt.Errorf("%w: %s is %d bytes", errSnapshotTooLarge, name, fi.Size())
	}
	return os.ReadFile(full)
}

// loadFromDisk recovers graphs and stores from the snapshot directory
// into the (still-private, unlocked) registry. Leftover temp files
// from an interrupted write or streaming build are quarantined (set
// aside as *.corrupt, never loaded); corrupt, mismatched, or orphaned
// snapshots are quarantined too; capacity bounds are respected
// (excess snapshots are left on disk untouched).
func (r *Registry) loadFromDisk() {
	p := r.persist
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	var graphFiles, storeFiles, lineageFiles []string
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir():
		case strings.HasSuffix(name, corruptSuffix):
			// Already set aside by a previous boot; leave it for the
			// operator.
		case strings.HasPrefix(name, tmpPrefix):
			// A crash mid-write or mid-streaming-build: the rename never
			// happened, so the data was never considered durable. With
			// build-through-to-file the partial can be arbitrarily large
			// and worth inspecting, so quarantine it rather than
			// silently deleting.
			p.quarantine(name)
		case strings.HasSuffix(name, graphSuffix):
			graphFiles = append(graphFiles, name)
		case strings.HasSuffix(name, storeSuffix):
			storeFiles = append(storeFiles, name)
		case strings.HasSuffix(name, lineageSuffix):
			lineageFiles = append(lineageFiles, name)
		}
	}

	// skipped records graphs left on disk because of the capacity
	// bound; their store snapshots must be left alone too (they are
	// valid, just not loadable right now — a later boot with a larger
	// -graphs must still find them).
	skipped := make(map[string]bool)
	for _, name := range graphFiles {
		id := strings.TrimSuffix(name, graphSuffix)
		if r.order.Len() >= r.cfg.MaxGraphs {
			skipped[id] = true
			continue
		}
		data, err := p.readSnapshot(name)
		if err != nil {
			p.quarantine(name)
			continue
		}
		n, edges, err := decodeGraphSnapshot(data)
		if err != nil {
			p.quarantine(name)
			continue
		}
		// The canonical form and the digest double as integrity checks:
		// a snapshot that re-canonicalizes differently or hashes to a
		// different id than its filename was tampered with or damaged.
		canonical, err := Canonicalize(n, edges)
		if err != nil {
			p.quarantine(name)
			continue
		}
		if Digest(n, canonical) != id {
			p.quarantine(name)
			continue
		}
		if _, ok := r.entries[id]; ok {
			continue
		}
		r.insertLoadedGraph(id, n, canonical)
		p.graphsLoaded++
	}

	// Lineage records attach after graphs and before stores: a record
	// is only trustworthy relative to the graphs actually recovered,
	// and store seeding does not depend on it (repair happens lazily at
	// hydration time, against whatever parent store is then warm).
	r.loadLineages(lineageFiles, skipped)

	// Current names load first, so a legacy copy of a store already
	// seeded is recognised as redundant.
	sort.SliceStable(storeFiles, func(a, b int) bool {
		return strings.Count(storeFiles[a], ".") < strings.Count(storeFiles[b], ".")
	})
	for _, name := range storeFiles {
		id, l, legacy, derived, ok := parseStoreFile(name)
		if !ok {
			p.quarantine(name)
			continue
		}
		el, present := r.entries[id]
		if !present {
			if skipped[id] {
				continue // graph over capacity: leave the store on disk
			}
			p.quarantine(name) // orphan: its graph is gone
			continue
		}
		ent := el.Value.(*Graph)
		if legacy {
			if _, seeded := ent.stores[l]; seeded || !derived {
				p.deleteFile(name) // the same cells under another name
				continue
			}
			if ent.storeOrder.Len() >= ent.maxStores {
				continue // per-graph cache full: leave it for a later boot
			}
			if err := os.Rename(filepath.Join(p.dir, name), filepath.Join(p.dir, storeFile(id, l))); err != nil {
				continue
			}
			name = storeFile(id, l)
		}
		st, err := r.hydrateStore(name)
		if errors.Is(err, errSnapshotTooLarge) {
			continue // valid but unslurpable: a paged boot can still use it
		}
		if err != nil || st.N() != ent.raw.N() || st.L() != l || apsp.KindOf(st) != apsp.KindFor(l) {
			p.quarantine(name)
			continue
		}
		if !ent.seedStore(l, st) {
			continue // per-graph cache full: leave the snapshot on disk
		}
		p.storesLoaded++
	}
}

// hydrateStore opens one store snapshot under the configured residency:
// paged or decoded into the heap.
func (r *Registry) hydrateStore(name string) (apsp.Store, error) {
	if r.cfg.PagedStores {
		// Budgeted hydration: the snapshot is served through the
		// registry's shared page cache, so boot cost is one header
		// read per store, no slurp limit applies, and resident bytes
		// stay under the budget no matter how many snapshots come
		// back. Cell values are checked lazily by the first Clone.
		return apsp.OpenPagedStore(filepath.Join(r.persist.dir, name), r.pages)
	}
	data, err := r.persist.readSnapshot(name)
	if err != nil {
		return nil, err
	}
	return apsp.UnmarshalStore(data)
}

// Stats converts the persister's counters to the public snapshot form.
func (p *persister) stats() PersistStats {
	if p == nil {
		return PersistStats{}
	}
	return PersistStats{
		Enabled:        true,
		Dir:            p.dir,
		GraphsLoaded:   p.graphsLoaded,
		StoresLoaded:   p.storesLoaded,
		LineagesLoaded: p.lineagesLoaded,
		Quarantined:    p.quarantined,
		GraphWrites:    p.graphWrites.Load(),
		StoreWrites:    p.storeWrites.Load(),
		LineageWrites:  p.lineageWrites.Load(),
		WriteErrors:    p.writeErrors.Load(),
		Deletes:        p.deletes.Load(),
	}
}
