// Package core implements the broadcast algorithms of the paper and its
// baselines:
//
//   - Decay and the Bar-Yehuda–Goldreich–Itai (BGI) global broadcast [2],
//     the optimal protocol-model algorithm (O(D log n + log² n) rounds).
//   - Decay-based local broadcast [8] (O(log n log Δ) in the protocol model).
//   - Permuted decay and the oblivious-model global broadcast of Section
//     4.1: the source appends runtime-generated permutation bits to its
//     message; receivers use them to permute the decay probability schedule,
//     defeating oblivious link processes (Theorem 4.1).
//   - The geographic local broadcast algorithm of Section 4.3: a seed
//     dissemination stage coordinates nearby nodes, then seed groups run
//     permuted decay jointly (Theorem 4.6, O(log² n log Δ) rounds).
//   - Round robin and fixed-probability (ALOHA) baselines.
//
// Every process implements radio.TransmitProber: its transmit decision each
// round is a Bernoulli trial whose probability is determined by state, which
// is exactly the information the online adaptive adversary may use.
package core

import (
	"math"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// DecayGlobal is the BGI global broadcast algorithm [2]: once informed (and
// aligned to a phase boundary), a node cycles through the transmit
// probabilities 1/2, 1/4, ..., 1/n, one per round, restarting each phase.
// The fixed, globally known probability schedule is what adaptive and
// sampling-oblivious adversaries exploit; compare PermutedGlobal.
type DecayGlobal struct{}

var _ radio.ProcessFactory = DecayGlobal{}

// Name implements radio.Algorithm.
func (DecayGlobal) Name() string { return "decay-global" }

// NewProcesses implements radio.Algorithm.
func (DecayGlobal) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	n := net.N()
	k := bitrand.LogN(n)
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		p := &decayGlobalProc{levels: k}
		resetDecayGlobalProc(p, u, spec.Source)
		procs[u] = p
	}
	return procs
}

// ResetProcesses implements radio.ProcessFactory.
func (DecayGlobal) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	k := bitrand.LogN(net.N())
	for u := range procs {
		p, ok := procs[u].(*decayGlobalProc)
		if !ok {
			return false
		}
		p.levels = k
		resetDecayGlobalProc(p, u, spec.Source)
	}
	return true
}

// resetDecayGlobalProc puts a process into its initial state for the given
// source, reusing the node's own source message across trials when it has
// one (the source never overwrites its message, so the cached frame is
// exactly what NewProcesses would allocate).
func resetDecayGlobalProc(p *decayGlobalProc, u, source graph.NodeID) {
	if u == source {
		if p.msg == nil || p.msg.Origin != u || p.msg.Payload != nil {
			p.msg = &radio.Message{Origin: u}
		}
		p.activeFrom = 0
		p.isSource = true
		return
	}
	p.msg = nil
	p.activeFrom = math.MaxInt
	p.isSource = false
}

//dglint:pooled reset=DecayGlobal.ResetProcesses
type decayGlobalProc struct {
	levels int
	msg    *radio.Message
	// activeFrom is the first round the node participates in: the first
	// phase boundary (multiple of levels) at or after the round it became
	// informed, 0 for the source, math.MaxInt while uninformed.
	activeFrom int
	isSource   bool
}

// active reports whether the node participates in round r: it must be
// informed and past its first phase boundary after becoming informed.
func (p *decayGlobalProc) active(r int) bool { return r >= p.activeFrom }

// prob returns the decay probability for round r: 2^{-(1 + r mod levels)}.
func (p *decayGlobalProc) prob(r int) float64 { return pow2Neg(r%p.levels + 1) }

// pow2Neg returns 2^-i for 1 <= i <= 1022, exactly: a normal float64 with an
// all-zero mantissa and biased exponent 1023-i.
func pow2Neg(i int) float64 { return math.Float64frombits(uint64(1023-i) << 52) }

// TransmitProb implements radio.TransmitProber.
func (p *decayGlobalProc) TransmitProb(r int) float64 {
	// As in [2], the source transmits deterministically in the first round;
	// every neighbor hears it uncontested, so the protocol starts from a
	// fixed informed frontier.
	if p.isSource && r == 0 {
		return 1
	}
	if !p.active(r) {
		return 0
	}
	return p.prob(r)
}

// Step implements radio.Process.
func (p *decayGlobalProc) Step(r int, rng *bitrand.Source) radio.Action {
	if p.isSource && r == 0 {
		return radio.Transmit(p.msg)
	}
	if !p.active(r) {
		return radio.Listen()
	}
	if rng.Coin(p.prob(r)) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *decayGlobalProc) Deliver(r int, msg *radio.Message) {
	if msg == nil || p.msg != nil {
		return
	}
	p.msg = msg
	// Informed from round r+1, the node joins at the next phase boundary.
	p.activeFrom = (r + p.levels) / p.levels * p.levels
}

// Frame implements radio.BulkStepper: Step is exactly one TransmitProb(r)
// coin (the source's deterministic round-0 transmission is probability 1,
// which draws no bits either way) transmitting the held message.
func (p *decayGlobalProc) Frame(int) *radio.Message { return p.msg }

// Dormant implements radio.Dormant: an uninformed node waits for the message.
func (p *decayGlobalProc) Dormant() bool { return p.msg == nil }

// Cohort implements radio.CohortMember: an informed node follows the public
// schedule of its level count from activeFrom on.
func (p *decayGlobalProc) Cohort() (radio.Cohort, int) {
	return decayGlobalCohort(p.levels), p.activeFrom
}

// decayGlobalCohort is decay global's shared schedule, keyed by its level
// count: 1 in round 0, when only the source can take part (every other
// node's activeFrom is a positive multiple of the level count), and
// 2^{-(1 + r mod levels)} after. A level count below 256 boxes into a
// radio.Cohort without allocating.
type decayGlobalCohort int

// RoundProb implements radio.Cohort.
func (c decayGlobalCohort) RoundProb(r int) float64 {
	if r == 0 {
		return 1
	}
	return pow2Neg(r%int(c) + 1)
}

var (
	_ radio.CohortMember = (*decayGlobalProc)(nil)
	_ radio.Dormant      = (*decayGlobalProc)(nil)
)

// DecayLocal is the decay-based local broadcast of [8] for the protocol
// model: each broadcaster cycles through the probabilities 1/2, ...,
// 2^{-(log Δ + 1)} in lockstep, one per round, repeating forever. For every
// receiver, one probability level roughly inverts its broadcaster-neighbor
// count, so every receiver is served once per sweep with constant
// probability; O(log n) sweeps suffice w.h.p. (Θ(log n log Δ) rounds).
type DecayLocal struct{}

var _ radio.ProcessFactory = DecayLocal{}

// Name implements radio.Algorithm.
func (DecayLocal) Name() string { return "decay-local" }

// decayLocalLevels returns the probability level count: down to ~1/(2Δ),
// enough for the densest receiver neighborhood.
func decayLocalLevels(net *graph.Dual) int {
	levels := bitrand.Log2Ceil(net.MaxDegree()) + 1
	if levels < 1 {
		levels = 1
	}
	return levels
}

// NewProcesses implements radio.Algorithm.
func (DecayLocal) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	n := net.N()
	levels := decayLocalLevels(net)
	inB := make([]bool, n)
	for _, u := range spec.Broadcasters {
		inB[u] = true
	}
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		if inB[u] {
			procs[u] = &decayLocalProc{levels: levels, msg: &radio.Message{Origin: u}}
		} else {
			procs[u] = silentProc{}
		}
	}
	return procs
}

// ResetProcesses implements radio.ProcessFactory. Broadcaster membership is
// encoded in the slab's process types and the engine only offers slabs built
// for an identical spec, so the only state to refresh is the level count;
// each broadcaster's message frame (Origin = itself, never overwritten) is
// reused as is.
func (DecayLocal) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	levels := decayLocalLevels(net)
	for u := range procs {
		switch p := procs[u].(type) {
		case *decayLocalProc:
			p.levels = levels
		case silentProc:
		default:
			return false
		}
	}
	return true
}

//dglint:pooled reset=DecayLocal.ResetProcesses
type decayLocalProc struct {
	levels int
	msg    *radio.Message //dglint:allow scratchreset: broadcaster frame (Origin = itself) is immutable, reused across trials
}

func (p *decayLocalProc) prob(r int) float64 { return pow2Neg(r%p.levels + 1) }

// TransmitProb implements radio.TransmitProber.
func (p *decayLocalProc) TransmitProb(r int) float64 { return p.prob(r) }

// Step implements radio.Process.
func (p *decayLocalProc) Step(r int, rng *bitrand.Source) radio.Action {
	if rng.Coin(p.prob(r)) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *decayLocalProc) Deliver(int, *radio.Message) {}

// Frame implements radio.BulkStepper: Step is exactly one prob(r) coin
// transmitting the broadcaster's own frame.
func (p *decayLocalProc) Frame(int) *radio.Message { return p.msg }

// Cohort implements radio.CohortMember: every broadcaster follows the
// schedule of its level count from round 0.
func (p *decayLocalProc) Cohort() (radio.Cohort, int) { return decayLocalCohort(p.levels), 0 }

// decayLocalCohort is decay local's shared schedule, 2^{-(1 + r mod
// levels)}, keyed by its level count like decayGlobalCohort.
type decayLocalCohort int

// RoundProb implements radio.Cohort.
func (c decayLocalCohort) RoundProb(r int) float64 { return pow2Neg(r%int(c) + 1) }

var _ radio.CohortMember = (*decayLocalProc)(nil)

// silentProc is a node with no role: it listens forever.
type silentProc struct{}

// TransmitProb implements radio.TransmitProber.
func (silentProc) TransmitProb(int) float64 { return 0 }

// Step implements radio.Process.
func (silentProc) Step(int, *bitrand.Source) radio.Action { return radio.Listen() }

// Deliver implements radio.Process.
func (silentProc) Deliver(int, *radio.Message) {}

// Frame implements radio.BulkStepper: probability 0, so it is never asked.
func (silentProc) Frame(int) *radio.Message { return nil }

// Dormant implements radio.Dormant: a node with no role never wakes.
func (silentProc) Dormant() bool { return true }

var (
	_ radio.BulkStepper = silentProc{}
	_ radio.Dormant     = silentProc{}
)
