package lopacity

// One benchmark per table and figure of the paper's evaluation
// (Section 6), plus microbenchmarks for the core operations. Each
// experiment benchmark executes the same runner as
// `lopexperiments -run <id>` in the quick regime and logs the resulting
// table once, so `go test -bench=. -benchmem` both times the harness
// and regenerates every paper artifact. docs/ARCHITECTURE.md#scale-substitution
// says how the quick regime and the generated samples stand in for the
// paper's inputs.

import (
	"sync"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/apsp"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/opacity"
)

// benchCfg is the quick-regime configuration used by every experiment
// benchmark: one repetition keeps -bench runs tractable while still
// producing the full row/series structure of the paper artifact.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Repetitions: 1}
}

// logOnce arranges for each experiment's table to be printed a single
// time regardless of b.N.
var logOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if _, done := logOnce.LoadOrStore(id, true); !done {
			b.Logf("\n%s", t.String())
		}
	}
}

func BenchmarkTable1DatasetCatalog(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2OriginalProperties(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3SampleProperties(b *testing.B)   { benchExperiment(b, "table3") }

func BenchmarkFig6aGoogleL1(b *testing.B)      { benchExperiment(b, "fig6a") }
func BenchmarkFig6bWikipediaL1(b *testing.B)   { benchExperiment(b, "fig6b") }
func BenchmarkFig6cEnronL1(b *testing.B)       { benchExperiment(b, "fig6c") }
func BenchmarkFig6dBSL1(b *testing.B)          { benchExperiment(b, "fig6d") }
func BenchmarkFig6eEpinionsL2(b *testing.B)    { benchExperiment(b, "fig6e") }
func BenchmarkFig6fGnutellaL2(b *testing.B)    { benchExperiment(b, "fig6f") }
func BenchmarkFig6gEpinionsVaryL(b *testing.B) { benchExperiment(b, "fig6g") }
func BenchmarkFig6hGnutellaVaryL(b *testing.B) { benchExperiment(b, "fig6h") }

func BenchmarkFig7aDegreeEMD(b *testing.B)   { benchExperiment(b, "fig7a") }
func BenchmarkFig7bGeodesicEMD(b *testing.B) { benchExperiment(b, "fig7b") }

func BenchmarkFig8aCCWikipedia(b *testing.B)     { benchExperiment(b, "fig8a") }
func BenchmarkFig8bCCEpinionsL2(b *testing.B)    { benchExperiment(b, "fig8b") }
func BenchmarkFig8cCCEpinionsVaryL(b *testing.B) { benchExperiment(b, "fig8c") }

func BenchmarkFig9RuntimeVsTheta(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10RuntimeBySize(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11ACMRuntime(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12ACMDistortion(b *testing.B) { benchExperiment(b, "fig12") }

func BenchmarkTheorem1Reduction(b *testing.B) { benchExperiment(b, "thm1") }

func BenchmarkSpectralUtility(b *testing.B) { benchExperiment(b, "spectral") }

func BenchmarkMotivation(b *testing.B) { benchExperiment(b, "motivation") }

func BenchmarkAblationTiebreak(b *testing.B)  { benchExperiment(b, "ablation-tiebreak") }
func BenchmarkAblationEngines(b *testing.B)   { benchExperiment(b, "ablation-engines") }
func BenchmarkAblationLookahead(b *testing.B) { benchExperiment(b, "ablation-lookahead") }

func BenchmarkExtKIsoTradeoff(b *testing.B) { benchExperiment(b, "ext-kiso") }
func BenchmarkExtAnneal(b *testing.B)       { benchExperiment(b, "ext-anneal") }
func BenchmarkExtCentrality(b *testing.B)   { benchExperiment(b, "ext-centrality") }
func BenchmarkExtRMAT(b *testing.B)         { benchExperiment(b, "ext-rmat") }

// --- Microbenchmarks for the core operations -------------------------

func BenchmarkMaxLO(b *testing.B) {
	g, err := dataset.GenerateByKey("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	deg := g.Degrees()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = opacity.MaxLO(g, deg, 2)
	}
}

func BenchmarkBuild(b *testing.B) {
	g, err := dataset.GenerateByKey("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = apsp.Build(g, 2, apsp.BuildOptions{})
	}
}

func BenchmarkLPrunedFW(b *testing.B) {
	g, err := dataset.GenerateByKey("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = apsp.LPrunedFW(g, 2)
	}
}

func BenchmarkPointerFW(b *testing.B) {
	g, err := dataset.GenerateByKey("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = apsp.PointerFW(g, 2)
	}
}

func BenchmarkEdgeRemovalStep(b *testing.B) {
	g, err := dataset.GenerateByKey("gnutella100", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := anonymize.Run(g, anonymize.Options{
			L: 1, Theta: 0, Heuristic: anonymize.Removal, LookAhead: 1,
			Seed: 1, MaxSteps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeAnonymize(b *testing.B) {
	g, err := Dataset("gnutella100", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Anonymize(g, Options{L: 1, Theta: 0.7, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnonymizeWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkAnonymizeWorkers4(b *testing.B) { benchWorkers(b, 4) }
func BenchmarkAnonymizeWorkers8(b *testing.B) { benchWorkers(b, 8) }

// benchWorkers measures the parallel candidate-scan speedup on a run
// whose result is identical at every setting.
func benchWorkers(b *testing.B, workers int) {
	b.Helper()
	g, err := dataset.GenerateByKey("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := anonymize.Run(g, anonymize.Options{
			L: 2, Theta: 0.5, Heuristic: anonymize.Removal,
			LookAhead: 1, Seed: 1, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Store-comparison benchmarks ---------------------------------------
//
// One benchmark pair per hot operation, compact (uint8) versus packed
// (int32) backing, so the memory/bandwidth win of the default store is
// measurable run-over-run:
//
//	go test -bench 'BenchmarkStore' -benchmem
//
// The builds also report allocated bytes, where the 4x backing-size
// difference shows up directly.

func storeBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := dataset.GenerateByKey("gnutella500", 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// storeIn builds the gnutella500 store at L=2 in the given backing.
func storeIn(g *graph.Graph, k apsp.Kind) apsp.MutableStore {
	m := apsp.NewStore(g.N(), 2, k)
	apsp.Copy(m, apsp.Build(g, 2, apsp.BuildOptions{}))
	return m
}

func benchStoreEachPair(b *testing.B, k apsp.Kind) {
	m := storeIn(storeBenchGraph(b), k)
	l := m.L()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		m.EachPair(func(_, _, d int) {
			if d <= l {
				count++
			}
		})
		if count == 0 {
			b.Fatal("empty store")
		}
	}
}

func BenchmarkStoreEachPairCompact(b *testing.B) { benchStoreEachPair(b, apsp.KindCompact) }
func BenchmarkStoreEachPairPacked(b *testing.B)  { benchStoreEachPair(b, apsp.KindPacked) }

func benchStoreInsertionDelta(b *testing.B, k apsp.Kind) {
	g := storeBenchGraph(b)
	m := storeIn(g, k)
	// A deterministic absent edge: the delta scan is O(n^2) regardless.
	u, v := -1, -1
	for i := 0; i < g.N() && u < 0; i++ {
		for j := i + 1; j < g.N(); j++ {
			if !g.HasEdge(i, j) {
				u, v = i, j
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apsp.InsertionDelta(m, u, v, func(_, _, _, _ int) {})
	}
}

func BenchmarkStoreInsertionDeltaCompact(b *testing.B) { benchStoreInsertionDelta(b, apsp.KindCompact) }
func BenchmarkStoreInsertionDeltaPacked(b *testing.B)  { benchStoreInsertionDelta(b, apsp.KindPacked) }

func benchStoreRemovalDelta(b *testing.B, k apsp.Kind) {
	g := storeBenchGraph(b)
	m := storeIn(g, k)
	e := g.Edges()[g.M()/2]
	scratch := apsp.NewScratch(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apsp.RemovalDelta(g, m, e.U, e.V, scratch, func(_, _, _, _ int) {})
	}
}

func BenchmarkStoreRemovalDeltaCompact(b *testing.B) { benchStoreRemovalDelta(b, apsp.KindCompact) }
func BenchmarkStoreRemovalDeltaPacked(b *testing.B)  { benchStoreRemovalDelta(b, apsp.KindPacked) }
