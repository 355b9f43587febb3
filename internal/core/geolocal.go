package core

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// GeoLocal is the Section 4.3 local broadcast algorithm for geographic
// graphs in the oblivious dual graph model (Theorem 4.6: O(log²n·logΔ)
// rounds).
//
// The algorithm has two stages.
//
// Initialization ("seed dissemination"): rounds are divided into logΔ
// phases of O(log²n) rounds. In the first round of phase i, each still-
// active node elects itself leader with probability 2^{-(logΔ-i+1)} (the
// probabilities sweep 1/Δ ... 1/2). Each leader draws a seed of shared
// random bits and commits to it; for the rest of the phase it broadcasts the
// seed with probability 1/logn per round. Active non-leaders that receive a
// seed commit to the first one heard and become inactive. Nodes still
// uncommitted at the end of the stage draw their own seed.
//
// Broadcast: broadcasters run O(log²n) iterations; each iteration is one
// permuted decay call of γ·logΔ rounds. A broadcaster participates in an
// iteration with probability 1/logn, decided by its seed bits, and runs the
// call with permutation indices also drawn from the seed — so all
// broadcasters sharing a seed make identical participation and probability
// choices, recreating the coordination that Lemma 4.2 needs while remaining
// unpredictable to the oblivious adversary.
type GeoLocal struct {
	// Gamma is the permuted decay γ (default 16; Lemma 4.2 wants ≥ 16,
	// smaller values trade failure probability for speed in experiments).
	Gamma int
	// FloodFactor scales the per-phase flood length: FloodFactor·log²n
	// rounds (default 2).
	FloodFactor int
	// IterFactor scales the broadcast-stage iteration count:
	// IterFactor·log²n iterations (default 2).
	IterFactor int
	// DisableSeedSharing replaces every committed seed with a private one,
	// keeping the stage structure identical. This is the seed ablation: it
	// removes exactly the coordination the algorithm exists to provide.
	DisableSeedSharing bool
}

var _ radio.ProcessFactory = GeoLocal{}

// Name implements radio.Algorithm.
func (a GeoLocal) Name() string {
	if a.DisableSeedSharing {
		return "geo-local-noseeds"
	}
	return "geo-local"
}

func (a GeoLocal) params(net *graph.Dual) geoParams {
	gamma := a.Gamma
	if gamma <= 0 {
		gamma = PermutedDecayGamma
	}
	ff := a.FloodFactor
	if ff <= 0 {
		ff = 2
	}
	itf := a.IterFactor
	if itf <= 0 {
		itf = 2
	}
	n := net.N()
	logN := bitrand.LogN(n)
	lDelta := bitrand.Log2Ceil(net.MaxDegree())
	if lDelta < 1 {
		lDelta = 1
	}
	p := geoParams{
		n:           n,
		logN:        logN,
		lDelta:      lDelta,
		gamma:       gamma,
		floodRounds: ff * logN * logN,
		iterations:  itf * logN * logN,
	}
	p.phaseLen = 1 + p.floodRounds
	p.initRounds = lDelta * p.phaseLen
	p.blockLen = gamma * lDelta
	p.bitsPerIndex = bitrand.BitsFor(lDelta)
	p.partBits = bitrand.BitsFor(logN)
	p.bitsPerIter = p.partBits + p.blockLen*p.bitsPerIndex
	p.seedBits = p.iterations * p.bitsPerIter
	return p
}

type geoParams struct {
	n, logN, lDelta, gamma int
	floodRounds, phaseLen  int
	initRounds             int
	iterations             int
	blockLen               int
	bitsPerIndex, partBits int
	bitsPerIter, seedBits  int
}

// electionProb returns the leader election probability of 0-based phase i:
// 2^{-(lDelta-i)}, sweeping ≈1/Δ up to 1/2.
func (p geoParams) electionProb(phase int) float64 {
	exp := p.lDelta - phase
	if exp < 1 {
		exp = 1
	}
	return pow2Neg(exp)
}

// geoClock is the stage clock one slab's processes share: the parameters,
// and the stage position of the last round asked about. Every process asks
// for the same round in turn, so the divisions that place a round run once
// per round, not once per node.
//
//dglint:pooled reset=GeoLocal.ResetProcesses
type geoClock struct {
	par   geoParams
	round int // the round sp places; -1 before the first
	sp    stagePos
}

// stagePos decomposes round r.
type stagePos struct {
	init     bool
	phase    int // init: phase index
	within   int // init: 0 = election round, >0 = flood round
	iter     int // broadcast: iteration index
	iterOffs int // broadcast: round within the iteration
}

// pos returns round r's stage position, placing r only when it differs from
// the last round asked about.
func (c *geoClock) pos(r int) *stagePos {
	if r != c.round {
		c.round = r
		if r < c.par.initRounds {
			c.sp = stagePos{init: true, phase: r / c.par.phaseLen, within: r % c.par.phaseLen}
		} else {
			t := r - c.par.initRounds
			c.sp = stagePos{iter: t / c.par.blockLen, iterOffs: t % c.par.blockLen}
		}
	}
	return &c.sp
}

// NewProcesses implements radio.Algorithm.
func (a GeoLocal) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	clk := &geoClock{par: a.params(net), round: -1}
	n := net.N()
	inB := make([]bool, n)
	for _, u := range spec.Broadcasters {
		inB[u] = true
	}
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		procs[u] = &geoLocalProc{
			id:          u,
			clk:         clk,
			inB:         inB[u],
			leaderPhase: -1,
			noShare:     a.DisableSeedSharing,
		}
	}
	return procs
}

// ResetProcesses implements radio.ProcessFactory. All construction-time
// randomness of this algorithm is drawn during the execution (seeds are
// generated in Step/Deliver), so a reset only clears per-trial state and
// re-derives the parameters from the receiver. Each node retains the seed
// storage it drew itself last trial so the next trial's seeds refill in
// place; shared (received) seeds are merely dropped, never retained, since
// their storage belongs to the node that drew them. The slab's stage clock
// is reset in place and shared again by every process.
func (a GeoLocal) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	var clk *geoClock
	for u := range procs {
		p, ok := procs[u].(*geoLocalProc)
		if !ok {
			return false
		}
		if clk == nil {
			clk = p.clk
			*clk = geoClock{par: a.params(net), round: -1}
		}
		spare := p.ownSeed
		if spare == nil {
			spare = p.spareSeed
		}
		*p = geoLocalProc{
			id:          u,
			clk:         clk,
			inB:         p.inB,
			leaderPhase: -1,
			noShare:     a.DisableSeedSharing,
			spareSeed:   spare,
		}
	}
	return true
}

//dglint:pooled reset=GeoLocal.ResetProcesses
type geoLocalProc struct {
	id  graph.NodeID
	clk *geoClock // shared by the slab
	inB bool
	// noShare implements the seed ablation: commit only to private seeds.
	noShare bool

	seed        *bitrand.BitString // nil until committed
	seedMsg     *radio.Message     // the message this node floods as leader
	leaderPhase int                // phase in which this node leads, or -1
	bcastMsg    *radio.Message     // lazy; Origin = self, for broadcast stage

	// Seed-storage reuse across arena resets: ownSeed is the bit string this
	// node drew itself (leader seed, self-commit, or the ablation's private
	// copy); spareSeed is retained storage from a previous trial that
	// freshSeed refills instead of allocating.
	ownSeed   *bitrand.BitString
	spareSeed *bitrand.BitString
}

// freshSeed draws this node's own seed of par.seedBits bits from src,
// refilling storage retained from a previous trial when available.
func (p *geoLocalProc) freshSeed(src *bitrand.Source) *bitrand.BitString {
	s := p.spareSeed
	p.spareSeed = nil
	if s != nil {
		s.Refill(src, p.clk.par.seedBits)
	} else {
		s = bitrand.NewBitString(src, p.clk.par.seedBits)
	}
	p.ownSeed = s
	return s
}

// participates reports whether this node's seed group participates in the
// given broadcast iteration (probability ≈ 1/logn, identical across the
// seed group).
func (p *geoLocalProc) participates(iter int) bool {
	par := &p.clk.par
	v := p.seed.Word(iter%par.iterations*par.bitsPerIter, par.partBits)
	// v is uniform over [0, 2^partBits); participate on 0, probability
	// 2^{-ceil(log2 logn)} ≈ 1/logn.
	return v == 0
}

// probIndex returns the shared permuted decay index i ∈ [1, logΔ] for round
// j of the given iteration.
func (p *geoLocalProc) probIndex(iter, j int) int {
	par := &p.clk.par
	v := p.seed.Word(iter%par.iterations*par.bitsPerIter+par.partBits+j*par.bitsPerIndex, par.bitsPerIndex)
	return int(v%uint64(par.lDelta)) + 1
}

// TransmitProb implements radio.TransmitProber.
func (p *geoLocalProc) TransmitProb(r int) float64 {
	sp := p.clk.pos(r)
	if sp.init {
		if sp.within > 0 && p.leaderPhase == sp.phase {
			return 1 / float64(p.clk.par.logN)
		}
		return 0
	}
	if !p.inB || p.seed == nil {
		return 0
	}
	if !p.participates(sp.iter) {
		return 0
	}
	return pow2Neg(p.probIndex(sp.iter, sp.iterOffs))
}

// Step implements radio.Process.
func (p *geoLocalProc) Step(r int, rng *bitrand.Source) radio.Action {
	par := &p.clk.par
	sp := p.clk.pos(r)
	if sp.init {
		switch {
		case sp.within == 0 && p.seed == nil:
			// Election round: still-active nodes self-elect.
			if rng.Coin(par.electionProb(sp.phase)) {
				p.becomeLeader(sp.phase, rng)
			}
		case sp.within > 0 && p.leaderPhase == sp.phase:
			// Flood round for this phase's leaders.
			if rng.Coin(1 / float64(par.logN)) {
				return radio.Transmit(p.seedMsg)
			}
		}
		// Nodes still uncommitted in the final init round self-commit so the
		// broadcast stage starts with every node seeded (paper: "if a node
		// ends the initialization stage still active, it generates its own
		// seed and commits to it").
		if r == par.initRounds-1 && p.seed == nil {
			p.seed = p.freshSeed(rng)
		}
		return radio.Listen()
	}
	// Broadcast stage.
	if !p.inB || p.seed == nil || !p.participates(sp.iter) {
		return radio.Listen()
	}
	if rng.Coin(pow2Neg(p.probIndex(sp.iter, sp.iterOffs))) {
		if p.bcastMsg == nil {
			p.bcastMsg = &radio.Message{Origin: p.id}
		}
		return radio.Transmit(p.bcastMsg)
	}
	return radio.Listen()
}

func (p *geoLocalProc) becomeLeader(phase int, rng *bitrand.Source) {
	p.leaderPhase = phase
	p.seed = p.freshSeed(rng)
	p.seedMsg = &radio.Message{Origin: p.id, Payload: p.seed}
}

// Deliver implements radio.Process.
func (p *geoLocalProc) Deliver(r int, msg *radio.Message) {
	if msg == nil || p.seed != nil {
		return
	}
	if !p.clk.pos(r).init {
		return
	}
	seed, ok := msg.Payload.(*bitrand.BitString)
	if !ok {
		return
	}
	if p.noShare {
		// Seed ablation: commit, but to a private re-randomized copy so the
		// coordination content of the seed is destroyed while timing and
		// message complexity stay identical. Deriving from the id keeps the
		// run deterministic.
		priv := bitrand.New(uint64(p.id)*0x9e3779b97f4a7c15 + 0x5eed)
		p.seed = p.freshSeed(priv)
		return
	}
	p.seed = seed
}
