package core

import (
	"math"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// captureAlg wraps an Algorithm and keeps the produced processes for
// white-box inspection.
type captureAlg struct {
	inner radio.Algorithm
	procs []radio.Process
}

func (c *captureAlg) Name() string { return c.inner.Name() }

func (c *captureAlg) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	c.procs = c.inner.NewProcesses(net, spec, rng)
	return c.procs
}

func geoNet(t *testing.T, w, h int) *graph.Dual {
	t.Helper()
	src := bitrand.New(uint64(w*100 + h))
	d := graph.GeographicGrid(src, w, h, 0.7, 1.5)
	if !graph.Connected(d.G()) {
		t.Fatal("test geo network disconnected")
	}
	return d
}

func everyThird(n int) []graph.NodeID {
	var b []graph.NodeID
	for u := 0; u < n; u += 3 {
		b = append(b, u)
	}
	return b
}

func TestGeoLocalSolvesProtocolModel(t *testing.T) {
	net := geoNet(t, 6, 6)
	for seed := uint64(0); seed < 3; seed++ {
		res := runLocal(t, GeoLocal{}, net, everyThird(net.N()), nil, seed, 60000)
		if !res.Solved {
			t.Fatalf("seed %d: geo local incomplete after %d rounds", seed, res.Rounds)
		}
	}
}

func TestGeoLocalSolvesUnderRandomLoss(t *testing.T) {
	net := geoNet(t, 6, 6)
	link := struct{ radio.ObliviousLink }{randomLossLink(0.5)}
	for seed := uint64(0); seed < 2; seed++ {
		res := runLocal(t, GeoLocal{}, net, everyThird(net.N()), link, seed, 60000)
		if !res.Solved {
			t.Fatalf("seed %d: geo local incomplete under random loss", seed)
		}
	}
}

// randomLossLink is a minimal local copy to avoid an import cycle with the
// adversary package in tests (core must not depend on adversary).
type randomLossLink float64

func (p randomLossLink) CommitSchedule(env *radio.Env) radio.Schedule {
	seed := env.Rng.Uint64()
	return radio.ScheduleFunc(func(r int) graph.EdgeSelector {
		return graph.SelectFunc{F: func(u, v graph.NodeID) bool {
			k := graph.MakeEdgeKey(u, v)
			return bitrand.HashFloat(seed, uint64(r), uint64(k.U), uint64(k.V)) < float64(p)
		}}
	})
}

func TestGeoLocalEveryoneCommitsAfterInit(t *testing.T) {
	net := geoNet(t, 6, 6)
	cap := &captureAlg{inner: GeoLocal{}}
	par := GeoLocal{}.params(net)
	_, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: cap,
		Spec:      radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyThird(net.N())},
		Seed:      5,
		MaxRounds: par.initRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range cap.procs {
		gp := p.(*geoLocalProc)
		if gp.seed == nil {
			t.Fatalf("node %d uncommitted after initialization stage", u)
		}
	}
}

func TestGeoLocalSeedsAreShared(t *testing.T) {
	net := geoNet(t, 7, 7)
	cap := &captureAlg{inner: GeoLocal{}}
	par := GeoLocal{}.params(net)
	_, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: cap,
		Spec:      radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyThird(net.N())},
		Seed:      6,
		MaxRounds: par.initRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[*bitrand.BitString]int)
	for _, p := range cap.procs {
		gp := p.(*geoLocalProc)
		seeds[gp.seed]++
	}
	if len(seeds) >= net.N() {
		t.Fatalf("no seed sharing at all: %d distinct seeds for %d nodes", len(seeds), net.N())
	}
	shared := 0
	for _, count := range seeds {
		if count > 1 {
			shared += count
		}
	}
	if shared == 0 {
		t.Fatal("no node shares a seed with any other")
	}
}

func TestGeoLocalSeedAblationProducesDistinctSeeds(t *testing.T) {
	net := geoNet(t, 6, 6)
	cap := &captureAlg{inner: GeoLocal{DisableSeedSharing: true}}
	par := GeoLocal{}.params(net)
	_, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: cap,
		Spec:      radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyThird(net.N())},
		Seed:      6,
		MaxRounds: par.initRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[*bitrand.BitString]bool)
	for _, p := range cap.procs {
		gp := p.(*geoLocalProc)
		if gp.seed == nil {
			t.Fatal("uncommitted node in ablation run")
		}
		if seeds[gp.seed] {
			t.Fatal("seed ablation still shares seed objects")
		}
		seeds[gp.seed] = true
	}
}

func TestGeoLocalParams(t *testing.T) {
	net := geoNet(t, 6, 6)
	par := GeoLocal{}.params(net)
	if par.lDelta < 1 || par.logN < 1 {
		t.Fatalf("degenerate params: %+v", par)
	}
	if par.initRounds != par.lDelta*par.phaseLen {
		t.Fatal("init stage length inconsistent")
	}
	if par.blockLen != PermutedDecayGamma*par.lDelta {
		t.Fatal("block length inconsistent")
	}
	// Election probabilities sweep upward and end at 1/2.
	prev := 0.0
	for i := 0; i < par.lDelta; i++ {
		p := par.electionProb(i)
		if p <= prev {
			t.Fatalf("election prob not increasing at phase %d", i)
		}
		prev = p
	}
	if prev != 0.5 {
		t.Fatalf("final election prob = %v, want 0.5", prev)
	}
}

func TestGeoLocalTransmitProbZeroMeansSilent(t *testing.T) {
	net := geoNet(t, 5, 5)
	cap := &captureAlg{inner: GeoLocal{}}
	spec := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyThird(net.N())}
	procs := cap.NewProcesses(net, spec, bitrand.New(3))
	rng := bitrand.New(4)
	// Drive Step directly for a few rounds: whenever TransmitProb reports
	// 0, Step must listen.
	for r := 0; r < 200; r++ {
		for _, p := range procs {
			gp := p.(*geoLocalProc)
			prob := gp.TransmitProb(r)
			act := gp.Step(r, rng)
			if prob == 0 && act.Transmit {
				t.Fatalf("round %d: transmitted despite declared prob 0", r)
			}
		}
	}
}

// TestPow2Neg pins pow2Neg, which the permuted decay and geographic
// schedules use for 2^-i, against math.Ldexp over the indices where it is
// exact, and Prob's fallback past them.
func TestPow2Neg(t *testing.T) {
	for i := 0; i <= 1022; i++ {
		if got, want := pow2Neg(i), math.Ldexp(1, -i); got != want {
			t.Fatalf("pow2Neg(%d) = %v, want %v", i, got, want)
		}
	}
	// A schedule with more levels than normal exponents still returns
	// 2^-Index: an all-ones string reads the largest index.
	levels := 1100
	bits := bitrand.NewBitString(bitrand.New(1), 4096)
	sched := NewPermScheduleLevels(bits, levels, 1, 1)
	for r := 0; r < 200; r++ {
		if got, want := sched.Prob(r), math.Ldexp(1, -sched.Index(r)); got != want {
			t.Fatalf("round %d: Prob = %v, want 2^-%d = %v", r, got, sched.Index(r), want)
		}
	}
}

func TestGeoLocalNames(t *testing.T) {
	if (GeoLocal{}).Name() == (GeoLocal{DisableSeedSharing: true}).Name() {
		t.Fatal("ablation must carry a distinct name")
	}
}

// TestGeoLocalElectionProbClamp covers the boundary past the sweep: phases
// at or beyond lDelta (possible when initRounds is not a multiple of
// phaseLen only in principle, but the clamp is the documented contract)
// saturate at 1/2 rather than racing past certainty.
func TestGeoLocalElectionProbClamp(t *testing.T) {
	par := GeoLocal{}.params(geoNet(t, 6, 6))
	for _, phase := range []int{par.lDelta - 1, par.lDelta, par.lDelta + 5} {
		if p := par.electionProb(phase); p != 0.5 {
			t.Fatalf("electionProb(%d) = %v, want the 1/2 clamp", phase, p)
		}
	}
}

// refSeedBits is the bit loop the seed reads replaced: k bits of the seed
// from off, wrapping if the seed is undersized, and 0 for an empty seed.
func refSeedBits(seed *bitrand.BitString, off, k int) uint64 {
	n := seed.Len()
	if n == 0 {
		return 0
	}
	var v uint64
	for b := 0; b < k; b++ {
		v |= seed.At((off+b)%n) << uint(b)
	}
	return v
}

// TestGeoLocalSeedBitsWrap pins participates and probIndex against the bit
// loop, for a full seed, undersized seeds whose reads wrap, and an empty
// seed, which reads as all-zero instead of dividing by zero.
func TestGeoLocalSeedBitsWrap(t *testing.T) {
	for _, net := range []*graph.Dual{geoNet(t, 6, 6), geoNet(t, 3, 9)} {
		par := GeoLocal{Gamma: 3}.params(net)
		clk := &geoClock{par: par, round: -1}
		for _, n := range []int{par.seedBits, par.bitsPerIter + 1, 5, 3, 1, 0} {
			p := &geoLocalProc{clk: clk, seed: bitrand.NewBitString(bitrand.New(uint64(n)), n)}
			for iter := 0; iter < 2*par.iterations+3; iter++ {
				off := iter % par.iterations * par.bitsPerIter
				if got, want := p.participates(iter), refSeedBits(p.seed, off, par.partBits) == 0; got != want {
					t.Fatalf("seed %d bits: participates(%d) = %v, want %v", n, iter, got, want)
				}
				for j := 0; j < par.blockLen; j++ {
					v := refSeedBits(p.seed, off+par.partBits+j*par.bitsPerIndex, par.bitsPerIndex)
					if got, want := p.probIndex(iter, j), int(v%uint64(par.lDelta))+1; got != want {
						t.Fatalf("seed %d bits: probIndex(%d, %d) = %d, want %d", n, iter, j, got, want)
					}
				}
			}
		}
	}
}

// TestGeoLocalStageClock pins the shared stage clock against the division
// formula for rounds asked in order, repeated and out of order, by several
// processes of one slab, and across ResetProcesses, which must keep one
// clock per slab and reset it without allocating.
func TestGeoLocalStageClock(t *testing.T) {
	net := geoNet(t, 6, 6)
	alg := GeoLocal{}
	spec := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyThird(net.N())}
	procs := alg.NewProcesses(net, spec, bitrand.New(1))
	par := alg.params(net)
	want := func(r int) stagePos {
		if r < par.initRounds {
			return stagePos{init: true, phase: r / par.phaseLen, within: r % par.phaseLen}
		}
		t := r - par.initRounds
		return stagePos{iter: t / par.blockLen, iterOffs: t % par.blockLen}
	}
	last := par.initRounds + 3*par.blockLen
	var rounds []int
	for r := 0; r <= last; r++ {
		rounds = append(rounds, r, r) // in order, each asked twice
	}
	rounds = append(rounds, last, 0, par.initRounds, par.initRounds-1, 7, last-1, par.phaseLen, par.phaseLen-1)
	check := func(stage string) {
		t.Helper()
		clk := procs[0].(*geoLocalProc).clk
		for i, r := range rounds {
			gp := procs[i%len(procs)].(*geoLocalProc)
			if gp.clk != clk {
				t.Fatalf("%s: node %d has its own clock", stage, i%len(procs))
			}
			if got := *gp.clk.pos(r); got != want(r) {
				t.Fatalf("%s: pos(%d) = %+v, want %+v", stage, r, got, want(r))
			}
		}
	}
	check("fresh")
	if !alg.ResetProcesses(procs, net, spec, bitrand.New(2)) {
		t.Fatal("reset refused its own slab")
	}
	if clk := procs[0].(*geoLocalProc).clk; clk.round != -1 || clk.par != par {
		t.Fatalf("reset clock holds round %d, params %+v", clk.round, clk.par)
	}
	check("reset")
	// A reset under other parameters re-derives them into the same clock,
	// without allocating.
	clk := procs[0].(*geoLocalProc).clk
	clk.pos(50)
	short, rng := GeoLocal{Gamma: 3}, bitrand.New(4)
	if allocs := testing.AllocsPerRun(10, func() { short.ResetProcesses(procs, net, spec, rng) }); allocs != 0 {
		t.Errorf("ResetProcesses allocates %v times", allocs)
	}
	if procs[0].(*geoLocalProc).clk != clk || clk.par != short.params(net) || clk.round != -1 {
		t.Fatal("reset did not keep the slab's clock and re-derive its parameters")
	}
	par = short.params(net)
	check("reset under other parameters")
}

// TestGeoLocalFinalInitSelfCommit covers the last-round fallback directly: a
// node that reaches the final initialization round without a seed commits to
// a fresh private one, so the broadcast stage never starts unseeded.
func TestGeoLocalFinalInitSelfCommit(t *testing.T) {
	net := geoNet(t, 5, 5)
	procs := GeoLocal{}.NewProcesses(net, radio.Spec{Problem: radio.LocalBroadcast}, bitrand.New(2))
	p := procs[0].(*geoLocalProc)
	p.leaderPhase = -2 // never this phase's leader; elections can't fire either
	rng := bitrand.New(0)
	p.Step(p.clk.par.initRounds-2, rng)
	if p.seed != nil {
		t.Fatal("committed before the final init round without electing")
	}
	p.Step(p.clk.par.initRounds-1, rng)
	if p.seed == nil {
		t.Fatal("final init round did not self-commit")
	}
	if p.ownSeed != p.seed {
		t.Fatal("self-commit must draw the node's own seed")
	}
}

// TestGeoLocalDeliverBoundaries covers the commit guards: nil frames,
// non-seed payloads, already-committed nodes, and deliveries after the
// initialization stage must all leave the seed untouched.
func TestGeoLocalDeliverBoundaries(t *testing.T) {
	net := geoNet(t, 5, 5)
	procs := GeoLocal{}.NewProcesses(net, radio.Spec{Problem: radio.LocalBroadcast}, bitrand.New(2))
	p := procs[1].(*geoLocalProc)
	seed := bitrand.NewBitString(bitrand.New(3), p.clk.par.seedBits)

	p.Deliver(1, nil)
	p.Deliver(1, &radio.Message{Origin: 0})                                   // no payload
	p.Deliver(p.clk.par.initRounds, &radio.Message{Origin: 0, Payload: seed}) // too late
	if p.seed != nil {
		t.Fatal("a guarded delivery committed a seed")
	}
	p.Deliver(1, &radio.Message{Origin: 0, Payload: seed})
	if p.seed != seed {
		t.Fatal("an in-stage seed frame did not commit")
	}
	other := bitrand.NewBitString(bitrand.New(4), p.clk.par.seedBits)
	p.Deliver(2, &radio.Message{Origin: 2, Payload: other})
	if p.seed != seed {
		t.Fatal("a second delivery overwrote the committed seed")
	}
}
