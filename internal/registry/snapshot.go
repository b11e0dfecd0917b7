// Peer snapshot transfer: the binary envelope one registry instance
// streams to another so a cold replica hydrates a graph — canonical
// edge set plus every cached distance store — instead of re-parsing
// and rebuilding APSP.
//
// The envelope (magic "LOPH", version 2) wraps the exact encodings the
// persistence layer already trusts: the LOPG graph snapshot and one
// length-prefixed LOPS store snapshot per cached store. A store's
// identity is (graph, L) and the LOPS header already carries n, L and
// the backing, so a section needs no key of its own. Version 1, whose
// sections also named an engine and a backing, is rejected. Install
// verifies the graph the same way boot recovery does — re-canonicalize,
// re-digest, compare against the id the caller asked for — and
// validates every store section against the installed graph's
// dimensions and the backing its L derives; a mismatched envelope
// installs nothing, and a mismatched store section is skipped, never
// adopted.
// Installed graphs and stores are write-through persisted like any
// other registration, so hydration survives a restart.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/apsp"
)

const (
	snapshotMagic   = "LOPH"
	snapshotVersion = 2
	// snapshotHeaderLen is magic + version.
	snapshotHeaderLen = 4 + 1
	// MaxSnapshotBytes bounds one snapshot envelope on both ends of the
	// transfer; it matches the persistence layer's heap slurp limit.
	MaxSnapshotBytes = maxSnapshotSize
)

// ErrSnapshotMismatch marks an envelope whose canonical edge set does
// not hash to the id the caller asked to install: the body is not the
// graph the request names, so nothing was installed.
var ErrSnapshotMismatch = errors.New("registry: snapshot digest mismatch")

// Snapshot serializes the graph for peer transfer: the canonical edge
// set plus every distance store currently cached and built. The result
// is self-contained — InstallSnapshot on any registry reproduces the
// graph (same content address) and its stores with zero APSP builds.
func (g *Graph) Snapshot() ([]byte, error) {
	// Collect the ready slots under the lock, marshal outside it: store
	// serialization is O(n^2) work that must not block the cache.
	g.mu.Lock()
	ready := make([]apsp.Store, 0, g.storeOrder.Len())
	for el := g.storeOrder.Front(); el != nil; el = el.Next() {
		if slot := el.Value.(*storeEntry).slot; slot.ready.Load() {
			ready = append(ready, slot.store)
		}
	}
	g.mu.Unlock()

	buf := make([]byte, 0, 1<<16)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, snapshotVersion)
	gb := encodeGraphSnapshot(g.raw.N(), g.edges)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(gb)))
	buf = append(buf, gb...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ready)))
	for _, st := range ready {
		sb, err := apsp.MarshalStore(st)
		if err != nil {
			return nil, fmt.Errorf("registry: snapshot store l=%d: %w", st.L(), err)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sb)))
		buf = append(buf, sb...)
	}
	return buf, nil
}

// snapshotReader walks an envelope with strict bounds checking: every
// read is validated against the remaining length, so a truncated or
// hostile envelope errors instead of panicking.
type snapshotReader struct {
	data []byte
	off  int
}

func (r *snapshotReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("registry: snapshot truncated at byte %d (want %d more)", r.off, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *snapshotReader) uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// decodeSnapshot decodes and validates a whole envelope: the framing,
// the graph (canonical, within maxN when positive), and every store
// section. It returns the graph, its digest, and the stores that
// match the graph's n and the backing their L derives; skipped counts
// the sections that did not. A malformed envelope or
// graph is an error. The bytes may come from the network, so no input
// makes it panic.
func decodeSnapshot(data []byte, maxN int) (n int, canonical [][2]int, id string, stores []apsp.Store, skipped int, err error) {
	r := &snapshotReader{data: data}
	hdr, err := r.take(snapshotHeaderLen)
	if err != nil {
		return 0, nil, "", nil, 0, err
	}
	if string(hdr[:4]) != snapshotMagic {
		return 0, nil, "", nil, 0, fmt.Errorf("registry: snapshot envelope has bad magic %q", hdr[:4])
	}
	if hdr[4] != snapshotVersion {
		return 0, nil, "", nil, 0, fmt.Errorf("registry: unsupported snapshot envelope version %d (want %d)", hdr[4], snapshotVersion)
	}
	graphData, err := r.section()
	if err != nil {
		return 0, nil, "", nil, 0, err
	}
	count, err := r.uint64()
	if err != nil {
		return 0, nil, "", nil, 0, err
	}
	if count > uint64(len(data)) { // each section is at least one byte of framing
		return 0, nil, "", nil, 0, fmt.Errorf("registry: snapshot claims %d store sections in %d bytes", count, len(data))
	}
	sections := make([][]byte, count)
	for i := range sections {
		if sections[i], err = r.section(); err != nil {
			return 0, nil, "", nil, 0, err
		}
	}
	if r.off != len(data) {
		return 0, nil, "", nil, 0, fmt.Errorf("registry: snapshot has %d trailing bytes after the last section", len(data)-r.off)
	}

	n, edges, err := decodeGraphSnapshot(graphData)
	if err != nil {
		return 0, nil, "", nil, 0, err
	}
	if maxN > 0 && n > maxN {
		return 0, nil, "", nil, 0, fmt.Errorf("registry: snapshot graph n=%d exceeds serving limit %d", n, maxN)
	}
	if canonical, err = Canonicalize(n, edges); err != nil {
		return 0, nil, "", nil, 0, err
	}
	for _, sec := range sections {
		// The same trust rules boot recovery applies: the store must
		// cover the graph, in the backing its L derives.
		st, err := apsp.UnmarshalStore(sec)
		if err != nil || st.N() != n || apsp.KindOf(st) != apsp.KindFor(st.L()) {
			skipped++
			continue
		}
		stores = append(stores, st)
	}
	return n, canonical, Digest(n, canonical), stores, skipped, nil
}

// section reads one uint64-length-prefixed section.
func (r *snapshotReader) section() ([]byte, error) {
	size, err := r.uint64()
	if err != nil {
		return nil, err
	}
	if size > uint64(len(r.data)) {
		return nil, fmt.Errorf("registry: snapshot section at byte %d claims %d bytes, envelope is %d", r.off, size, len(r.data))
	}
	return r.take(int(size))
}

// InstallSnapshot hydrates a graph from a peer's snapshot envelope:
// decode, verify the canonical edge set hashes to wantID
// (ErrSnapshotMismatch otherwise — nothing is installed), register the
// graph, and adopt every store section that validates against it.
// Adopted stores count as already built, so the replica's first
// request for one is a store hit with zero APSP builds. Sections that
// are already cached, fail validation, or exceed the per-graph store
// capacity are skipped, never trusted. Both the graph and the adopted
// stores are write-through persisted when persistence is on. maxN,
// when positive, rejects graphs larger than the serving bound — the
// installer enforces the same ceiling its own registration path does.
func (r *Registry) InstallSnapshot(wantID string, data []byte, maxN int) (g *Graph, created bool, installed, skipped int, err error) {
	n, canonical, id, stores, skipped, err := decodeSnapshot(data, maxN)
	if err != nil {
		return nil, false, 0, 0, err
	}
	if id != wantID {
		return nil, false, 0, 0, fmt.Errorf("%w: body hashes to %s, want %s", ErrSnapshotMismatch, id, wantID)
	}
	ent, created, err := r.Put(n, canonical)
	if err != nil {
		return nil, false, 0, 0, err
	}
	for _, st := range stores {
		if !ent.adoptStore(st.L(), st) {
			skipped++
			continue
		}
		installed++
		if p := r.persist; p != nil {
			p.saveStore(ent.id, st.L(), st)
		}
	}
	r.hydrations.Add(1)
	r.hydratedStores.Add(int64(installed))
	return ent, created, installed, skipped, nil
}

// adoptStore installs an already-built store into the graph's cache at
// runtime with its build marked spent — the concurrency-safe
// counterpart of the boot-only seedStore. It reports false when a
// store for L is already present (an existing store, built or in
// flight, is never replaced), the per-graph cache is full, or the
// graph has been deleted.
func (g *Graph) adoptStore(l int, st apsp.Store) bool {
	g.mu.Lock()
	if _, ok := g.stores[l]; ok || g.storeOrder.Len() >= g.maxStores || g.detached {
		g.mu.Unlock()
		return false
	}
	slot := &storeSlot{store: st}
	slot.once.Do(func() {}) // consume the build
	slot.ready.Store(true)
	g.stores[l] = g.storeOrder.PushFront(&storeEntry{l: l, slot: slot})
	g.mu.Unlock()
	g.reg.stores.Add(1)
	return true
}
