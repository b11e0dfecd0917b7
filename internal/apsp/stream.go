package apsp

import (
	"bufio"
	"encoding/binary"
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
// through MappedStore or PagedStore.
//
// The output is byte-for-byte the LOPS snapshot MarshalStore produces
// for the heap build of the same graph and threshold — the tests
// assert this — so everything that reads snapshots (boot hydration,
// mmap, paging, quarantine) is oblivious to which path wrote them.

// streamMaxBlockCells is the number of cells from which a block closes,
// once it also holds a batch per worker, so memory stays bounded no
// matter how large n grows.
const streamMaxBlockCells = 1 << 20

// StreamBuild writes the L-capped distance snapshot of g to w in one
// pass, with the payload layout KindFor(L) selects. o.Workers
// parallelizes the sweep within each block; blocks are written in
// order.
func StreamBuild(w io.Writer, g *graph.Graph, L int, o BuildOptions) error {
	if L < 0 {
		return fmt.Errorf("apsp: invalid threshold L=%d", L)
	}
	kind := KindFor(L)
	c := g.Frozen()
	n := c.N()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(appendStoreHeader(nil, kind, n, L)); err != nil {
		return err
	}
	sw := newSweeper(c, L, o.Workers)
	var err error
	if kind == KindCompact {
		err = streamTriangle(sw, uint8(L+1), func(cells []uint8) error {
			_, err := bw.Write(cells)
			return err
		})
	} else {
		var out []byte
		err = streamTriangle(sw, int32(L+1), func(cells []int32) error {
			out = out[:0]
			for _, x := range cells {
				out = binary.LittleEndian.AppendUint32(out, uint32(x))
			}
			_, err := bw.Write(out)
			return err
		})
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// streamTriangle sweeps the triangle block by block into one reused
// all-Far buffer and hands each finished block to emit.
func streamTriangle[T uint8 | int32](sw *sweeper, far T, emit func([]T) error) error {
	n := sw.c.N()
	var buf []T
	for _, b := range streamBlocks(n, len(sw.scratch)) {
		size := rowOffset(n, b[1]) - rowOffset(n, b[0])
		if cap(buf) < size {
			buf = make([]T, size)
		}
		cells := buf[:size]
		for i := range cells {
			cells[i] = far
		}
		sweepRows(sw, cells, b[0], b[1])
		if err := emit(cells); err != nil {
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
