package radio_test

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
)

// allLink is an oblivious link that includes every unreliable edge each
// round, forcing the delivery loop over the extra-neighbor arrays.
type allLink struct{}

func (allLink) CommitSchedule(*radio.Env) radio.Schedule {
	return radio.StaticSchedule{Selector: graph.SelectAll{}}
}

// BenchmarkEngineRoundDelivery measures one full trial — engine setup
// (NewProcesses and per-node rng streams) plus a fixed 256-round delivery
// loop — on the paper's two lower-bound topologies. IgnoreCompletion pins the
// round count so ns/op and allocs/op compare across engine changes; the
// per-iteration seed varies so transmit patterns are realistic, not cached.
// Run with -benchmem: allocs/op is the tracked number (BENCH_pr2.json).
func BenchmarkEngineRoundDelivery(b *testing.B) {
	run := func(b *testing.B, net *graph.Dual, spec radio.Spec, link any, cover bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// IgnoreCompletion makes every iteration execute exactly
			// MaxRounds rounds (Result.Rounds still reports the solving
			// round), so the measured work is identical across iterations.
			_, err := radio.Run(radio.Config{
				Net:              net,
				Algorithm:        core.DecayGlobal{},
				Spec:             spec,
				Link:             link,
				Seed:             uint64(i),
				MaxRounds:        256,
				UseCliqueCover:   cover,
				IgnoreCompletion: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	globalSpec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}

	dc, _ := graph.DualClique(128, 3)
	b.Run("dual-clique/n=128", func(b *testing.B) { run(b, dc, globalSpec, nil, false) })
	b.Run("dual-clique/n=128/cover", func(b *testing.B) { run(b, dc, globalSpec, nil, true) })

	br, _ := graph.Bracelet(512, 1)
	b.Run("bracelet/n=512", func(b *testing.B) { run(b, br, globalSpec, nil, false) })
	b.Run("bracelet/n=512/all-link", func(b *testing.B) { run(b, br, globalSpec, allLink{}, false) })

	// Word-parallel delivery on a SCALE-class circulant: n = 10⁴, degree
	// 2048, every node an aloha broadcaster at p = 1/2, so every round
	// carries ~n/2 transmitters. The scalar row walks ~10M adjacency entries
	// per round; the push kernel ORs each transmitter's ~33 row blocks into
	// the round's bit-planes, 64 listeners a word. PlanAuto resolves to the
	// same bitmap path here (density gate cleared), measured separately to
	// pin the dispatch overhead, and a committed half-fringe selection runs
	// the kernel over the rows of G plus the selected edges.
	// Built lazily: the benchmark function body re-runs for every selected
	// sub-benchmark, and the ~20M-entry CSR would otherwise bloat the live
	// heap (and every small sub-bench's GC bill) even when no dense row is
	// selected.
	var dense *graph.Dual
	var denseSpec radio.Spec
	var denseFringe any
	mkDense := func() {
		if dense != nil {
			return
		}
		dense = graph.AugmentDual(bitrand.New(0xd), graph.Circulant(10000, 2048), 20000)
		everyone := make([]graph.NodeID, dense.N())
		for u := range everyone {
			everyone[u] = u
		}
		denseSpec = radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyone}
		denseFringe = fixedLink{graph.NewSelectSet(halfExtraEdges(dense))}
	}
	runDense := func(b *testing.B, plan radio.DeliveryPlan, static bool) {
		b.Helper()
		mkDense()
		cfg := radio.Config{
			Net:              dense,
			Algorithm:        core.Aloha{P: 0.5},
			Spec:             denseSpec,
			MaxRounds:        1,
			Plan:             plan,
			IgnoreCompletion: true,
		}
		if static {
			cfg.Link = denseFringe
		}
		// One untimed round builds what trials share (the memoized mask
		// rows, the scratch's static rows), so allocs/op prices the trials.
		if _, err := radio.Run(cfg); err != nil {
			b.Fatal(err)
		}
		cfg.MaxRounds = 32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			if _, err := radio.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dense/n=10000/scalar", func(b *testing.B) { runDense(b, radio.PlanScalar, false) })
	b.Run("dense/n=10000/bitmap", func(b *testing.B) { runDense(b, radio.PlanBitmap, false) })
	b.Run("dense/n=10000/auto", func(b *testing.B) { runDense(b, radio.PlanAuto, false) })
	b.Run("dense/n=10000/static/scalar", func(b *testing.B) { runDense(b, radio.PlanScalar, true) })
	b.Run("dense/n=10000/static/auto", func(b *testing.B) { runDense(b, radio.PlanAuto, true) })
}

// BenchmarkSparseDelivery races the scalar CSR walk against the bitmap
// plan's push kernel on full aloha trials on the SCALE-family
// ring-with-chords substrates, and shows what PlanAuto picks at 10⁵. Every
// node transmits at p = 1/2, so half the nodes transmit each round. Both
// paths cost the transmitters' side of the round, the walk one add per
// transmitter edge and the kernel three passes over the transmitters' row
// blocks, and a sparse row holds about one neighbor a block, so the two
// come out level — on a 2-vCPU x86-64 host, 127–134 ms/op on the kernel
// against 128–155 ms/op on the walk at n = 10⁵ (a third walk run read
// 367 ms), and 0.79–0.92 s against 0.75–0.88 s at 10⁶ — and PlanAuto's
// density gate keeps sparse networks on the walk, which builds no masks, at
// every n (see setupPlan). IgnoreCompletion pins the round count so ns/op
// compares across plans. The substrates are built lazily and memoized for
// the same reason as the dense circulant above — the 10⁶-node dual alone
// holds ~10⁷ CSR entries plus, once the bitmap runs, its memoized mask
// rows.
func BenchmarkSparseDelivery(b *testing.B) {
	nets := map[int]*graph.Dual{}
	mk := func(n int) *graph.Dual {
		if d := nets[n]; d != nil {
			return d
		}
		src := bitrand.New(uint64(n))
		d := graph.AugmentDual(src, graph.RingChords(src, n, 2*n), n)
		nets[n] = d
		return d
	}
	run := func(b *testing.B, n, rounds int, plan radio.DeliveryPlan) {
		b.Helper()
		net := mk(n)
		everyone := make([]graph.NodeID, n)
		for u := range everyone {
			everyone[u] = u
		}
		cfg := radio.Config{
			Net:              net,
			Algorithm:        core.Aloha{P: 0.5},
			Spec:             radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyone},
			MaxRounds:        1,
			Plan:             plan,
			IgnoreCompletion: true,
		}
		// One untimed round builds the memoized mask rows.
		if _, err := radio.Run(cfg); err != nil {
			b.Fatal(err)
		}
		cfg.MaxRounds = rounds
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			if _, err := radio.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("n=10000/scalar", func(b *testing.B) { run(b, 10000, 32, radio.PlanScalar) })
	b.Run("n=10000/bitmap", func(b *testing.B) { run(b, 10000, 32, radio.PlanBitmap) })
	b.Run("n=100000/scalar", func(b *testing.B) { run(b, 100000, 16, radio.PlanScalar) })
	b.Run("n=100000/bitmap", func(b *testing.B) { run(b, 100000, 16, radio.PlanBitmap) })
	b.Run("n=100000/auto", func(b *testing.B) { run(b, 100000, 16, radio.PlanAuto) })
	b.Run("n=1000000/scalar", func(b *testing.B) { run(b, 1000000, 8, radio.PlanScalar) })
	b.Run("n=1000000/bitmap", func(b *testing.B) { run(b, 1000000, 8, radio.PlanBitmap) })
}

// BenchmarkEpochSwap measures full trials under a topology schedule against
// the identical static trial. The revisions are precompiled once (as the
// scenario layer does), so the only per-trial epoch cost is swapping hoisted
// CSR views and re-keying the memoized clique cover — the tracked number is
// allocs/op, which must stay within a few of the static path
// (BENCH_pr4.json).
func BenchmarkEpochSwap(b *testing.B) {
	dc, _ := graph.DualClique(128, 3)
	// Eight churn epochs inside the 256-round budget: every 32 rounds one
	// node leaves or rejoins and one reliable edge is demoted or restored.
	rv := graph.NewRevision(dc)
	epochs := []radio.Epoch{{Start: 0, Net: dc}}
	for e := 1; e < 8; e++ {
		ops := []graph.ChurnOp{
			{Kind: graph.ChurnLeave, U: 10 + e},
			{Kind: graph.ChurnRemoveEdge, U: 2 * e, V: 2*e + 1},
		}
		if e > 1 {
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnJoin, U: 10 + e - 1})
		}
		var err error
		if rv, err = rv.Apply(ops); err != nil {
			b.Fatal(err)
		}
		epochs = append(epochs, radio.Epoch{Start: 32 * e, Net: rv.Dual()})
	}
	spec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	run := func(b *testing.B, static bool, cover bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := radio.Config{
				Algorithm:        core.DecayGlobal{},
				Spec:             spec,
				Seed:             uint64(i),
				MaxRounds:        256,
				UseCliqueCover:   cover,
				IgnoreCompletion: true,
			}
			if static {
				cfg.Net = dc
			} else {
				cfg.Epochs = epochs
			}
			if _, err := radio.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("static/n=128", func(b *testing.B) { run(b, true, false) })
	b.Run("epochs/n=128", func(b *testing.B) { run(b, false, false) })
	b.Run("static/n=128/cover", func(b *testing.B) { run(b, true, true) })
	b.Run("epochs/n=128/cover", func(b *testing.B) { run(b, false, true) })
}

// BenchmarkContentionTrial measures a TDM gossip trial with staggered
// mid-run injections next to the same trial with all rumors present from
// round 0: the injection machinery (per-rumor activation, monitor
// pre-stamping, per-rumor completion in Result) must not add per-trial
// allocation churn beyond the two Result metadata slices.
func BenchmarkContentionTrial(b *testing.B) {
	net := graph.UniformDual(graph.Grid(12, 12))
	allUp := radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{0, 37, 91, 140}}
	staggered := radio.Spec{
		Problem: radio.Gossip,
		Sources: []graph.NodeID{0, 37},
		Injections: []radio.Injection{
			{Source: 91, Round: 16},
			{Source: 140, Round: 32},
		},
	}
	run := func(b *testing.B, spec radio.Spec) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := radio.Run(radio.Config{
				Net:       net,
				Algorithm: gossip.TDM{},
				Spec:      spec,
				Seed:      uint64(i),
				MaxRounds: 64,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("all-up/k=4", func(b *testing.B) { run(b, allUp) })
	b.Run("staggered/k=4", func(b *testing.B) { run(b, staggered) })
}

// BenchmarkGossipTrial measures a full TDM gossip trial on a grid: the
// k-rumor monitor's Θ(n·k) matrices and the per-rumor process state dominate
// the setup allocations.
func BenchmarkGossipTrial(b *testing.B) {
	b.ReportAllocs()
	net := graph.UniformDual(graph.Grid(12, 12))
	spec := radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{0, 37, 91, 140}}
	for i := 0; i < b.N; i++ {
		_, err := radio.Run(radio.Config{
			Net:       net,
			Algorithm: gossip.TDM{},
			Spec:      spec,
			Seed:      uint64(i),
			MaxRounds: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
