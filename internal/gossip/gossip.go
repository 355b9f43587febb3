// Package gossip extends the paper's broadcast toolbox to the problems its
// conclusion names as future work: k-rumor spreading and leader election in
// the dual graph model with weak adversaries.
//
// Both constructions reuse the Section 4.1 insight — runtime-generated
// shared bits defeat oblivious link processes — by running k time-multiplexed
// permuted-decay broadcasts: global round r serves rumor r mod k, and within
// a rumor's subsequence the informed nodes behave exactly like the paper's
// oblivious-model global broadcast, using bits the rumor's origin drew at
// runtime and ships inside its message. Leader election layers a
// highest-rank-wins rule on top.
package gossip

import (
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TDM is the time-division k-gossip algorithm: rumor i is served in global
// rounds r with r mod k = i, where the nodes informed of rumor i run
// permuted decay on the rumor's own shared bits with subsequence round index
// r / k. For k = 1 this degenerates to the Section 4.1 global broadcast.
// Expected completion is O(k · (D·log n + log²n)) subsequence-scaled rounds
// against oblivious adversaries.
//
// TDM is injection-aware: rumors scheduled by Spec.Injections get their own
// time-division slot from the start, but their origin stays silent until the
// injection round, then transmits deterministically in its first served slot
// (as the Section 4.1 source does in round 0) and joins permuted decay. The
// injected rumor's shared bits are still drawn at construction time — what
// the injection round delays is activation, not randomness — so executions
// remain a pure function of the seed.
type TDM struct{}

var _ radio.ProcessFactory = TDM{}

// Name implements radio.Algorithm.
func (TDM) Name() string { return "gossip-tdm" }

// rumor is a message payload: the shared permutation bits of one rumor.
type rumor struct {
	bits *bitrand.BitString
}

// rumorStart returns the round rumor index i enters the system: 0 for
// initial sources, the injection round for injected rumors.
func rumorStart(spec radio.Spec, i int) int {
	if i < len(spec.Sources) {
		return 0
	}
	return spec.Injections[i-len(spec.Sources)].Round
}

// NewProcesses implements radio.Algorithm.
func (TDM) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	n := net.N()
	k := spec.NumRumors()
	numBlocks := 2 * bitrand.LogN(n)
	srcIndex := make(map[graph.NodeID]int, k)
	for i, s := range spec.Sources {
		srcIndex[s] = i
	}
	for j, inj := range spec.Injections {
		srcIndex[inj.Source] = len(spec.Sources) + j
	}
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		p := &tdmProc{
			n:         n,
			k:         k,
			numBlocks: numBlocks,
			states:    make([]rumorState, k),
		}
		for i := range p.states {
			p.states[i].informedAt = -1
		}
		if i, ok := srcIndex[u]; ok {
			bits := bitrand.NewBitString(rng, core.GlobalBitsLen(n, numBlocks))
			st := &p.states[i]
			st.inform(rumorStart(spec, i), bits, n, numBlocks, k)
			st.msg = &radio.Message{Origin: u, Payload: rumor{bits: bits}}
			st.isOrigin = true
		}
		procs[u] = p
	}
	return procs
}

// ResetProcesses implements radio.ProcessFactory. Origins redraw their rumor
// bits in ascending node order — the order NewProcesses draws them — each
// refilling its own previous bit-string storage; every per-rumor state is
// cleared to uninformed first.
func (TDM) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	n := net.N()
	k := spec.NumRumors()
	numBlocks := 2 * bitrand.LogN(n)
	for u := range procs {
		p, ok := procs[u].(*tdmProc)
		if !ok {
			return false
		}
		if len(p.states) != k {
			p.states = make([]rumorState, k)
		}
		si := -1
		for i, s := range spec.Sources {
			if s == u {
				si = i
				break
			}
		}
		if si < 0 {
			for j, inj := range spec.Injections {
				if inj.Source == u {
					si = len(spec.Sources) + j
					break
				}
			}
		}
		// Capture this origin's own bit string before clearing: the origin
		// never overwrites its state, so the storage is reusable.
		var bits *bitrand.BitString
		if si >= 0 {
			if old := &p.states[si]; old.isOrigin && old.msg != nil {
				if pay, ok := old.msg.Payload.(rumor); ok {
					bits = pay.bits
				}
			}
		}
		oldMsg := (*radio.Message)(nil)
		if si >= 0 {
			oldMsg = p.states[si].msg
		}
		for i := range p.states {
			p.states[i] = rumorState{informedAt: -1}
		}
		p.n, p.k, p.numBlocks = n, k, numBlocks
		if si >= 0 {
			L := core.GlobalBitsLen(n, numBlocks)
			if bits != nil {
				bits.Refill(rng, L)
			} else {
				bits = bitrand.NewBitString(rng, L)
				oldMsg = nil
			}
			st := &p.states[si]
			st.inform(rumorStart(spec, si), bits, n, numBlocks, k)
			if oldMsg != nil && oldMsg.Origin == u {
				st.msg = oldMsg
			} else {
				st.msg = &radio.Message{Origin: u, Payload: rumor{bits: bits}}
			}
			st.isOrigin = true
		}
	}
	return true
}

//dglint:pooled reset=TDM.ResetProcesses
type rumorState struct {
	informedAt int // -1 until informed; startSub/sched/msg valid iff ≥ 0
	// startSub is the first aligned subsequence round: the subsequence
	// round at which the rumor was learned, rounded up to the next permuted
	// decay block boundary.
	startSub   int
	sched      core.PermSchedule
	msg        *radio.Message
	isOrigin   bool
	originSent bool
}

// inform records that the rumor with the given shared bits was learned (for
// an origin: activated) in round at, in a slab of n nodes running k rumors.
func (st *rumorState) inform(at int, bits *bitrand.BitString, n, numBlocks, k int) {
	st.informedAt = at
	st.sched.Reset(bits, n, numBlocks)
	st.startSub = 0
	if at > 0 {
		sub := (at + k - 1) / k
		bl := st.sched.BlockLen()
		st.startSub = (sub + bl - 1) / bl * bl
	}
}

//dglint:pooled reset=TDM.ResetProcesses
type tdmProc struct {
	n, k      int
	numBlocks int
	states    []rumorState
}

// slot returns the rumor index served in global round r and the rumor-local
// round index.
func (p *tdmProc) slot(r int) (idx, sub int) { return r % p.k, r / p.k }

func (p *tdmProc) prob(r int) (float64, *rumorState) {
	idx, sub := p.slot(r)
	st := &p.states[idx]
	if st.informedAt < 0 {
		return 0, st
	}
	if st.isOrigin {
		// An injected rumor's origin stays silent until its injection round
		// (informedAt holds the activation round for origins).
		if r < st.informedAt {
			return 0, st
		}
		// Origins transmit deterministically in their first active slot (as
		// the Section 4.1 source does in round 0), then join permuted decay.
		if !st.originSent {
			return 1, st
		}
	}
	if sub < st.startSub {
		return 0, st
	}
	return st.sched.Prob(sub), st
}

// TransmitProb implements radio.TransmitProber.
func (p *tdmProc) TransmitProb(r int) float64 {
	prob, _ := p.prob(r)
	return prob
}

// Step implements radio.Process.
func (p *tdmProc) Step(r int, rng *bitrand.Source) radio.Action {
	prob, st := p.prob(r)
	if prob <= 0 {
		return radio.Listen()
	}
	if prob >= 1 {
		st.originSent = true
		return radio.Transmit(st.msg)
	}
	if rng.Coin(prob) {
		return radio.Transmit(st.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *tdmProc) Deliver(r int, msg *radio.Message) {
	if msg == nil {
		return
	}
	idx, _ := p.slot(r)
	st := &p.states[idx]
	if st.informedAt >= 0 {
		return
	}
	pay, ok := msg.Payload.(rumor)
	if !ok {
		return
	}
	st.inform(r+1, pay.bits, p.n, p.numBlocks, p.k)
	st.msg = msg
}
