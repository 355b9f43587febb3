package graph_test

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// benchSink defeats dead-code elimination of the built graphs.
var benchSink int

// BenchmarkGraphBuild measures Builder→Build construction cost for the
// topologies the experiment registry builds most often, and the graph layer
// of the engine benchmark's substrates: building and augmenting circ1e4 and
// rc1e5, rc1e5's decomposition, and the n = 64 storm scenario's generation
// and compilation. Run with -benchmem: the allocation count is the tracked
// number for the registry topologies (BENCH_pr2.json).
func BenchmarkGraphBuild(b *testing.B) {
	b.Run("dual-clique/n=256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, _ := graph.DualClique(256, 3)
			benchSink = d.NumExtraEdges()
		}
	})
	b.Run("bracelet/n=512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, _ := graph.Bracelet(512, 1)
			benchSink = d.NumExtraEdges()
		}
	})
	b.Run("geo-grid/16x16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := graph.GeographicGrid(bitrand.New(7), 16, 16, 0.7, 1.5)
			benchSink = d.NumExtraEdges()
		}
	})
	b.Run("erdos-renyi/n=512/p=0.02", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := graph.ErdosRenyi(bitrand.New(11), 512, 0.02)
			benchSink = g.NumEdges()
		}
	})
	b.Run("circ1e4/build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = graph.Circulant(10000, 512).NumEdges()
		}
	})
	b.Run("circ1e4/augment", func(b *testing.B) {
		g := graph.Circulant(10000, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = graph.AugmentDual(bitrand.New(0x5ca1e04), g, 20000).NumExtraEdges()
		}
	})
	b.Run("rc1e5/build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = graph.RingChords(bitrand.New(0x5ca1e05), 100000, 200000).NumEdges()
		}
	})
	b.Run("rc1e5/augment", func(b *testing.B) {
		// The fringe is drawn from the source state the chords left.
		src := bitrand.New(0x5ca1e05)
		g := graph.RingChords(src, 100000, 200000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := *src
			benchSink = graph.AugmentDual(&s, g, 100000).NumExtraEdges()
		}
	})
	b.Run("rc1e5/decompose", func(b *testing.B) {
		g := rc1e5().G()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = graph.BuildDecomposition(g).Count
		}
	})
	b.Run("storm64/generate+compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc, err := stormScenario(64)
			if err != nil {
				b.Fatal(err)
			}
			epochs, err := sc.Compile()
			if err != nil {
				b.Fatal(err)
			}
			benchSink = len(epochs)
		}
	})
}
