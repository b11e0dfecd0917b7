package apsp

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// PagedStore windows a snapshot file through a bounded LRU page cache:
// it is the one file-backed store, and the backing for triangles larger
// than RAM. It pins at most its PageCache's budget: Get faults the
// 64 KiB page holding the cell into the cache, evicting the
// least-recently-used pages of ALL stores sharing the cache until the
// budget holds again. The cache is deliberately process-shared —
// the registry owns one sized by -store-budget-bytes, so the operator
// caps total resident triangle bytes with one number no matter how
// many graphs are registered.
//
// Header, dimensions, and file length are checked on open; cells are
// range-checked only when a full decode (Clone) runs, since scanning
// them would read the whole file. A corrupt cell therefore surfaces as
// an out-of-range distance at read time, and the first Clone rejects
// it, so it never reaches a heap store. A PagedStore implements only the
// read view — mutation goes through an Overlay.

// pageSize is the cache granule: big enough that a sequential EachPair
// amortizes one read syscall over 64k cells, small enough that random
// candidate-scan access doesn't thrash whole rows in and out.
const pageSize = 1 << 16

// PageCacheStats is a point-in-time snapshot of a PageCache's
// occupancy and traffic, surfaced through /v1/stats and /metrics.
type PageCacheStats struct {
	BudgetBytes   int64 // configured ceiling
	ResidentBytes int64 // bytes currently cached
	Pages         int   // resident page count
	Hits          int64 // page lookups served from cache
	Misses        int64 // page lookups that read the file
	Evictions     int64 // pages dropped to respect the budget
}

// pageKey identifies one page of one store; store IDs are unique per
// cache so two stores over the same file never alias.
type pageKey struct {
	store uint64
	page  int64
}

// cachePage is one resident page plus its LRU bookkeeping.
type cachePage struct {
	key pageKey
	buf []byte
}

// PageCache is a shared, thread-safe LRU of snapshot-file pages with a
// hard byte budget. All PagedStores opened against it draw from the
// same budget; evicting a page never touches the file, so a dropped
// page is simply re-read on the next miss.
type PageCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	nextID uint64
	lru    *list.List // front = most recently used; values are *cachePage
	pages  map[pageKey]*list.Element

	hits, misses, evictions int64
}

// NewPageCache returns a cache with the given byte budget. Budgets
// below one page are raised to one page — a cache that cannot hold the
// page it is currently serving would livelock.
func NewPageCache(budgetBytes int64) *PageCache {
	if budgetBytes < pageSize {
		budgetBytes = pageSize
	}
	return &PageCache{
		budget: budgetBytes,
		lru:    list.New(),
		pages:  make(map[pageKey]*list.Element),
	}
}

// Stats snapshots the cache counters.
func (c *PageCache) Stats() PageCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PageCacheStats{
		BudgetBytes:   c.budget,
		ResidentBytes: c.used,
		Pages:         c.lru.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
	}
}

// load returns the page'th payload page of the store, reading it from
// r on a miss and evicting LRU pages (never the one just loaded) until
// the budget holds. size is the byte length of the page, which is
// pageSize except for the file's tail.
func (c *PageCache) load(store uint64, page int64, size int, r io.ReaderAt) ([]byte, error) {
	key := pageKey{store: store, page: page}
	c.mu.Lock()
	if el, ok := c.pages[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		buf := el.Value.(*cachePage).buf
		c.mu.Unlock()
		return buf, nil
	}
	c.misses++
	c.mu.Unlock()

	// Read outside the lock: a page fault is a syscall, and serializing
	// all stores' IO behind one mutex would make the shared cache a
	// shared bottleneck. Two goroutines may race to read the same page;
	// the second insert finds the first's entry and drops its copy.
	buf := make([]byte, size)
	if _, err := r.ReadAt(buf, storeHeaderLen+page*pageSize); err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[key]; ok {
		return el.Value.(*cachePage).buf, nil
	}
	el := c.lru.PushFront(&cachePage{key: key, buf: buf})
	c.pages[key] = el
	c.used += int64(size)
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil || back == el {
			break // never evict the page being served
		}
		victim := back.Value.(*cachePage)
		c.lru.Remove(back)
		delete(c.pages, victim.key)
		c.used -= int64(len(victim.buf))
		c.evictions++
	}
	return buf, nil
}

// dropStore evicts every resident page of one store — what registry
// eviction of a paged store does: the memory goes, the file stays.
func (c *PageCache) dropStore(store uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		p := el.Value.(*cachePage)
		if p.key.store == store {
			c.lru.Remove(el)
			delete(c.pages, p.key)
			c.used -= int64(len(p.buf))
		}
	}
}

// residentBytes reports the bytes currently cached for one store.
func (c *PageCache) residentBytes(store uint64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*cachePage)
		if p.key.store == store {
			total += int64(len(p.buf))
		}
	}
	return total
}

// PagedStore is the read-only Store view over a snapshot file windowed
// through a shared PageCache. See the package comment above for the
// contract; construction is OpenPagedStore.
type PagedStore struct {
	n, l    int
	kind    Kind
	id      uint64
	cache   *PageCache
	f       *os.File
	payload int64 // payload byte length (file size minus header)

	closeOnce sync.Once
}

// OpenPagedStore opens the snapshot file at path as a paged view drawing
// from cache. The header and file length are validated up front; cell
// bytes are paged in lazily on first touch.
func OpenPagedStore(path string, cache *PageCache) (*PagedStore, error) {
	if cache == nil {
		return nil, fmt.Errorf("apsp: OpenPagedStore requires a PageCache")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("apsp: opening store snapshot: %w", err)
	}
	header := make([]byte, storeHeaderLen)
	if _, err := io.ReadFull(f, header); err != nil {
		f.Close()
		return nil, fmt.Errorf("apsp: %s: reading snapshot header: %w", path, err)
	}
	k, n, l, err := decodeStoreHeader(header)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("apsp: %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("apsp: %s: %w", path, err)
	}
	cells := cellCount(uint64(n))
	want := cells
	if k == KindPacked {
		want = 4 * cells
	}
	if got := uint64(fi.Size() - storeHeaderLen); got != want {
		f.Close()
		return nil, fmt.Errorf("apsp: %s: snapshot payload is %d bytes, want %d for n=%d %v cells", path, got, want, n, k)
	}
	s := &PagedStore{
		n: n, l: l, kind: k,
		cache:   cache,
		f:       f,
		payload: int64(want),
	}
	cache.mu.Lock()
	cache.nextID++
	s.id = cache.nextID
	cache.mu.Unlock()
	// Close the file when the store becomes unreachable without an
	// explicit Close — the reason registry eviction can just drop pages
	// and let go.
	runtime.SetFinalizer(s, func(p *PagedStore) { p.Close() })
	return s, nil
}

// Close drops the store's cached pages and closes the file. Idempotent;
// reads after Close panic.
func (s *PagedStore) Close() error {
	var err error
	s.closeOnce.Do(func() {
		runtime.SetFinalizer(s, nil)
		s.cache.dropStore(s.id)
		err = s.f.Close()
	})
	return err
}

// DropPages evicts the store's resident pages without closing it: the
// next read pages them back in. This is what cache-pressure eviction
// calls — memory is reclaimed, the artifact survives.
func (s *PagedStore) DropPages() { s.cache.dropStore(s.id) }

// N returns the number of vertices.
func (s *PagedStore) N() int { return s.n }

// L returns the distance threshold the store is capped at.
func (s *PagedStore) L() int { return s.l }

// Far returns the sentinel stored for pairs beyond the cap.
func (s *PagedStore) Far() int { return s.l + 1 }

// Kind reports the payload backing recorded in the snapshot header
// (compact or packed) — the kind a Clone decodes into.
func (s *PagedStore) Kind() Kind { return s.kind }

// ResidentBytes reports the bytes this store currently pins in the
// shared cache.
func (s *PagedStore) ResidentBytes() int64 { return s.cache.residentBytes(s.id) }

// FileBytes reports the on-disk size of the snapshot payload plus
// header.
func (s *PagedStore) FileBytes() int64 { return s.payload + storeHeaderLen }

// index returns the packed upper-triangle offset of the unordered pair
// {i, j}; the layout is identical to the other backings. int64 because
// a paged store exists precisely for triangles whose cell count
// justifies it.
func (s *PagedStore) index(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	if i == j || i < 0 || j >= s.n {
		panic(fmt.Sprintf("apsp: pair (%d, %d) out of range for n=%d", i, j, s.n))
	}
	return int64(i)*(2*int64(s.n)-int64(i)-1)/2 + int64(j-i-1)
}

// pageOf maps a payload byte offset to its page index, intra-page
// offset, and the page's byte length (short only at the tail).
func (s *PagedStore) pageOf(off int64) (page int64, rel int, size int) {
	page = off / pageSize
	rel = int(off % pageSize)
	size = pageSize
	if remain := s.payload - page*pageSize; remain < pageSize {
		size = int(remain)
	}
	return page, rel, size
}

// cellAt reads the cell at the given payload cell index through the
// cache. Pages are aligned to the payload start and pageSize is a
// multiple of the cell width, so a cell never straddles two pages.
func (s *PagedStore) cellAt(idx int64) int {
	off := idx
	if s.kind == KindPacked {
		off = 4 * idx
	}
	page, rel, size := s.pageOf(off)
	buf, err := s.cache.load(s.id, page, size, s.f)
	if err != nil {
		panic(fmt.Sprintf("apsp: paged store read (page %d): %v", page, err))
	}
	if s.kind == KindCompact {
		return int(buf[rel])
	}
	return int(int32(binary.LittleEndian.Uint32(buf[rel:])))
}

// Get returns the capped distance for the unordered pair {i, j}.
func (s *PagedStore) Get(i, j int) int { return s.cellAt(s.index(i, j)) }

// EachPair calls fn for every unordered pair i < j in row-major order.
// The walk is page-sequential: each 64 KiB page is faulted once and
// fully consumed before moving on, so a complete scan costs one pass
// over the file regardless of the cache budget — this is what keeps
// opacity-tracker construction over an out-of-core triangle at disk
// bandwidth instead of one cache probe per pair.
func (s *PagedStore) EachPair(fn func(i, j, d int)) {
	cell := int64(1)
	if s.kind == KindPacked {
		cell = 4
	}
	i, j := 0, 1
	for pageStart := int64(0); pageStart < s.payload; pageStart += pageSize {
		page, _, size := s.pageOf(pageStart)
		buf, err := s.cache.load(s.id, page, size, s.f)
		if err != nil {
			panic(fmt.Sprintf("apsp: paged store read (page %d): %v", page, err))
		}
		for rel := 0; rel+int(cell) <= len(buf); rel += int(cell) {
			var d int
			if s.kind == KindCompact {
				d = int(buf[rel])
			} else {
				d = int(int32(binary.LittleEndian.Uint32(buf[rel:])))
			}
			fn(i, j, d)
			j++
			if j == s.n {
				i++
				j = i + 1
			}
		}
	}
}

// copyTo fills dst, a heap store of the payload's kind, straight from
// the file one page-sized ReadAt at a time (see putCells) and returns
// the indices of cells below 1. It bypasses the page cache: a full
// pass would otherwise evict every other store's hot pages.
func (s *PagedStore) copyTo(dst MutableStore) (bad []int64) {
	cell := int64(1)
	if s.kind == KindPacked {
		cell = 4
	}
	buf := make([]byte, min(pageSize, s.payload))
	for off := int64(0); off < s.payload; off += pageSize {
		b := buf[:min(pageSize, s.payload-off)]
		if _, err := s.f.ReadAt(b, storeHeaderLen+off); err != nil {
			panic(fmt.Sprintf("apsp: paged store read (offset %d): %v", off, err))
		}
		bad = putCells(dst, int(off/cell), b, bad)
	}
	return bad
}

// snapshot reads the whole file, header and payload, with one ReadAt.
func (s *PagedStore) snapshot() ([]byte, error) {
	raw := make([]byte, storeHeaderLen+s.payload)
	if _, err := s.f.ReadAt(raw, 0); err != nil {
		return nil, fmt.Errorf("apsp: reading paged store snapshot: %w", err)
	}
	return raw, nil
}

// Clone decodes the whole snapshot into an independent, mutable heap
// store of the payload's kind, validating every cell on the way, so a
// corrupt snapshot cannot leak past the first Clone. It necessarily
// materializes the triangle; runs that only need mutability over a big
// store should wrap the PagedStore in an Overlay instead.
func (s *PagedStore) Clone() Store {
	raw, err := s.snapshot()
	if err != nil {
		panic(err.Error())
	}
	m, err := UnmarshalStore(raw)
	if err != nil {
		panic(fmt.Sprintf("apsp: cloning paged store: %v", err))
	}
	return m
}
