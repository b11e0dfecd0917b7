package apsp

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// Streaming snapshot builder: "build" and "persist" as one pass.
//
// StreamBuild runs the same sweep as Build, but renders the triangle
// one block of rows at a time into a bounded buffer and flushes each
// block to the writer, in order, before rendering the next. It never
// retains the triangle: peak memory is one block plus the per-worker
// BFS scratch, independent of the O(n²/2) payload, so a snapshot
// larger than RAM can be built on its way to disk and then served back
// through PagedStore.
//
// The output is byte-for-byte the LOPS snapshot MarshalStore produces
// for the heap build of the same graph and threshold — the tests
// assert this — so everything that reads snapshots (boot hydration,
// paging, quarantine) is oblivious to which path wrote them.

// streamMaxBlockCells is the number of cells from which a block closes,
// once it also holds a batch per worker, so memory stays bounded no
// matter how large n grows.
const streamMaxBlockCells = 1 << 20

// StreamBuild writes the L-capped distance snapshot of g to w in one
// pass, with the payload layout KindFor(L) selects. o.Workers
// parallelizes the sweep within each block; blocks are written in
// order.
func StreamBuild(w io.Writer, g *graph.Graph, L int, o BuildOptions) error {
	if L < 0 || L > MaxL {
		return fmt.Errorf("apsp: invalid threshold L=%d", L)
	}
	kind := KindFor(L)
	c := g.Frozen()
	n := c.N()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(appendStoreHeader(nil, kind, n, L)); err != nil {
		return err
	}
	// An empty triangle of the kind carries the cell width.
	if err := newTriangle(0, L, kind).stream(newSweeper(c, L, o.Workers), bw); err != nil {
		return err
	}
	return bw.Flush()
}

// stream sweeps the triangle of sw block by block into one reused
// all-Far buffer of m's cells and writes each finished block's snapshot
// encoding to w. m itself is not written.
func (*Triangle[T]) stream(sw *sweeper, w io.Writer) error {
	n := sw.c.N()
	var buf []T
	var out []byte
	for _, b := range streamBlocks(n, len(sw.scratch)) {
		size := rowOffset(n, b[1]) - rowOffset(n, b[0])
		if cap(buf) < size {
			buf = make([]T, size)
		}
		cells := buf[:size]
		fill(cells, T(sw.l+1))
		sweepRows(sw, cells, b[0], b[1])
		out = appendCells(out[:0], cells)
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	return nil
}

// streamBlocks partitions the rows [0, n) into contiguous blocks of
// whole 64-source batches. A block closes once it holds at least
// streamMaxBlockCells cells and one batch per worker, so every worker
// has a batch to sweep and a single huge batch still forms a block.
func streamBlocks(n, workers int) [][2]int {
	var blocks [][2]int
	lo, batches := 0, 0
	for s := 0; s < n; s += batchSize {
		hi := min(s+batchSize, n)
		batches++
		if hi == n || (batches >= workers && rowOffset(n, hi)-rowOffset(n, lo) >= streamMaxBlockCells) {
			blocks = append(blocks, [2]int{lo, hi})
			lo, batches = hi, 0
		}
	}
	return blocks
}

// BuildToFile streams the snapshot of g into path (truncating any
// existing file) and syncs it to stable storage. Callers wanting
// crash-safe visibility should pass a temp path and rename afterwards,
// which is exactly what the registry's build-through-to-file does.
func BuildToFile(path string, g *graph.Graph, L int, o BuildOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := StreamBuild(f, g, L, o); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
