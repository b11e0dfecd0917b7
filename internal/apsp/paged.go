package apsp

import (
	"container/list"
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
// range-checked only when a full copy (Clone, Copy, MarshalStore of an
// overlay) runs, since scanning them would read the whole file. A
// corrupt cell therefore surfaces as an out-of-range distance at read
// time, and the first copy clamps or rejects it, so it never reaches a
// heap store. A PagedStore implements only the read view — mutation
// goes through an Overlay.

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
	want := cellCount(uint64(n)) * uint64(k.width())
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

// page returns payload page p: through the cache when direct is nil,
// and otherwise read straight from the file into direct, a buffer of at
// least one page that the next read overwrites. Pages are aligned to
// the payload start and pageSize is a multiple of the cell width, so a
// cell never straddles two pages.
func (s *PagedStore) page(p int64, direct []byte) []byte {
	size := min(pageSize, s.payload-p*pageSize)
	var err error
	if direct == nil {
		direct, err = s.cache.load(s.id, p, int(size), s.f)
	} else {
		direct = direct[:size]
		_, err = s.f.ReadAt(direct, storeHeaderLen+p*pageSize)
	}
	if err != nil {
		panic(fmt.Sprintf("apsp: paged store read (page %d): %v", p, err))
	}
	return direct
}

// Get returns the capped distance for the unordered pair {i, j}, read
// through the cache.
func (s *PagedStore) Get(i, j int) int {
	off := pairIndex(s.n, i, j) * s.kind.width()
	return s.kind.decodeCell(s.page(off/pageSize, nil), int(off%pageSize))
}

// EachPair calls fn for every unordered pair i < j in row-major order.
// The row walk is page-sequential: each 64 KiB page is faulted once and
// fully consumed before moving on, so a complete scan costs one pass
// over the file regardless of the cache budget — this is what keeps
// opacity-tracker construction over an out-of-core triangle at disk
// bandwidth instead of one cache probe per pair.
func (s *PagedStore) EachPair(fn func(i, j, d int)) { rowsOf(s).eachPair(fn) }

// snapshot reads the whole file, header and payload, with one ReadAt.
func (s *PagedStore) snapshot() ([]byte, error) {
	raw := make([]byte, storeHeaderLen+s.payload)
	if _, err := s.f.ReadAt(raw, 0); err != nil {
		return nil, fmt.Errorf("apsp: reading paged store snapshot: %w", err)
	}
	return raw, nil
}

// Clone copies the whole snapshot into an independent, mutable heap
// store of the payload's kind under Copy's rules — a cell above Far is
// clamped, a cell below 1 panics — so a corrupt snapshot cannot leak
// past the first Clone. It necessarily materializes the triangle; runs
// that only need mutability over a big store should wrap the
// PagedStore in an Overlay instead.
func (s *PagedStore) Clone() Store { return rowsOf(s).heapCopy() }
