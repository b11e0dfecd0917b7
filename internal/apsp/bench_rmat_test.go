package apsp

import (
	"fmt"
	"os"
	"testing"
)

// RMAT build benchmarks: the perf-trajectory suite behind BENCH_*.json
// (cmd/lopbench runs these in-process). The default sizes finish in CI;
// the 100k-vertex / ~1M-edge headline runs only when LOPBENCH_LARGE=1,
// because the full build is a multi-minute, multi-gigabyte job.

const benchL = 3

// benchSizes returns the (n, m) grid to benchmark: the CI scale
// always, the paper-scale point only when LOPBENCH_LARGE=1.
func benchSizes() [][2]int {
	sizes := [][2]int{{5_000, 50_000}}
	if os.Getenv("LOPBENCH_LARGE") == "1" {
		sizes = append(sizes, [2]int{100_000, 1_000_000})
	}
	return sizes
}

func benchName(n, m int) string {
	return fmt.Sprintf("n%d_m%d", n, m)
}

// BenchmarkBuildRMATCSR is the sequential sweep.
func BenchmarkBuildRMATCSR(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build(g, benchL)
			}
		})
	}
}

// BenchmarkCSRFrozen isolates the snapshot cost every build pays up
// front — it must stay a small fraction of the sweep it accelerates.
func BenchmarkCSRFrozen(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Frozen()
			}
		})
	}
}

var benchStoreSink Store

// BenchmarkBuildAuto is the default build the server runs: the sweep
// with the auto-parallel worker rule.
func BenchmarkBuildAuto(b *testing.B) {
	for _, sz := range benchSizes() {
		g := rmatGraph(b, sz[0], sz[1], 42)
		b.Run(benchName(sz[0], g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchStoreSink = Build(g, benchL, BuildOptions{})
			}
		})
	}
}
