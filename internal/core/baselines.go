package core

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// RoundRobin is the adversary-proof baseline of the paper's footnotes 4 and
// 5: node u transmits (when it holds a message) exactly in rounds r with
// r mod n = u. Every round has at most one transmitter in the entire
// network, so no link process can cause a collision; any added edge only
// helps. Local broadcast completes within n rounds; global broadcast within
// n·D rounds. Deterministic and slow — the O(n) row of Figure 1.
type RoundRobin struct{}

var _ radio.ProcessFactory = RoundRobin{}

// Name implements radio.Algorithm.
func (RoundRobin) Name() string { return "round-robin" }

// NewProcesses implements radio.Algorithm.
func (RoundRobin) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	n := net.N()
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		procs[u] = &roundRobinProc{id: u, n: n}
	}
	assignRoundRobinMessages(procs, spec)
	return procs
}

// ResetProcesses implements radio.ProcessFactory.
func (RoundRobin) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	n := net.N()
	for u := range procs {
		p, ok := procs[u].(*roundRobinProc)
		if !ok {
			return false
		}
		p.id, p.n = u, n
		p.msg = nil
	}
	assignRoundRobinMessages(procs, spec)
	return true
}

// assignRoundRobinMessages hands initial messages to the source (global) or
// the broadcasters (local), reusing each holder's own cached frame across
// trials (relays overwrite msg, never own).
func assignRoundRobinMessages(procs []radio.Process, spec radio.Spec) {
	hold := func(u graph.NodeID) {
		if u < 0 || u >= len(procs) {
			return // out-of-range spec; the engine's monitor reports it
		}
		p := procs[u].(*roundRobinProc)
		if p.own == nil || p.own.Origin != u {
			p.own = &radio.Message{Origin: u}
		}
		p.msg = p.own
	}
	switch spec.Problem {
	case radio.GlobalBroadcast:
		hold(spec.Source)
	default: // LocalBroadcast
		for _, u := range spec.Broadcasters {
			hold(u)
		}
	}
}

//dglint:pooled reset=RoundRobin.ResetProcesses
type roundRobinProc struct {
	id, n int
	msg   *radio.Message // nil until the node holds a message
	own   *radio.Message // the node's own initial frame, nil for relays
}

func (p *roundRobinProc) myTurn(r int) bool { return r%p.n == p.id }

// TransmitProb implements radio.TransmitProber.
func (p *roundRobinProc) TransmitProb(r int) float64 {
	if p.msg != nil && p.myTurn(r) {
		return 1
	}
	return 0
}

// Step implements radio.Process.
func (p *roundRobinProc) Step(r int, rng *bitrand.Source) radio.Action {
	if p.msg != nil && p.myTurn(r) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *roundRobinProc) Deliver(r int, msg *radio.Message) {
	if msg != nil && p.msg == nil {
		p.msg = msg // relay for global broadcast
	}
}

// Frame implements radio.BulkStepper: the transmit decision is a 0/1
// probability (deterministic turn-taking), never a real coin, and the frame
// is the held message.
func (p *roundRobinProc) Frame(int) *radio.Message { return p.msg }

// Dormant implements radio.Dormant: a node without a message skips its turn.
func (p *roundRobinProc) Dormant() bool { return p.msg == nil }

var (
	_ radio.BulkStepper = (*roundRobinProc)(nil)
	_ radio.Dormant     = (*roundRobinProc)(nil)
)

// Aloha is the uncoordinated fixed-probability local broadcast baseline:
// every broadcaster transmits each round with the same probability P. With
// P = 0 a sensible default of 1/2 is used. Aloha exhibits the
// Ω(√n / log n) behavior on the bracelet network: transmitting fast makes
// every round dense (blocked by the sampling adversary); transmitting at
// the sparse threshold rate means waiting ~√n/log n rounds for the clasp
// transmission.
type Aloha struct {
	// P is the per-round transmit probability of each broadcaster.
	P float64
}

var _ radio.ProcessFactory = Aloha{}

// Name implements radio.Algorithm.
func (Aloha) Name() string { return "aloha" }

func (a Aloha) prob() float64 {
	p := a.P
	if p <= 0 {
		p = 0.5
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ResetProcesses implements radio.ProcessFactory. Membership is encoded in
// the process types and each broadcaster's frame is immutable, so only the
// transmit probability (an Aloha parameter, re-derived from the receiver) is
// refreshed, in the slab's one shared cohort.
func (a Aloha) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	var c *alohaCohort
	for u := range procs {
		switch p := procs[u].(type) {
		case *alohaProc:
			if c == nil {
				c = p.cohort
				c.p = a.prob()
			}
			p.cohort = c
		case silentProc:
		default:
			return false
		}
	}
	return true
}

// NewProcesses implements radio.Algorithm.
func (a Aloha) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	c := &alohaCohort{p: a.prob()}
	n := net.N()
	inB := make([]bool, n)
	for _, u := range spec.Broadcasters {
		inB[u] = true
	}
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		if inB[u] {
			procs[u] = &alohaProc{cohort: c, msg: &radio.Message{Origin: u}}
		} else {
			procs[u] = silentProc{}
		}
	}
	return procs
}

// alohaCohort is the transmit probability a slab's broadcasters share. A
// pointer boxes into a radio.Cohort without allocating, where a float64
// would not.
type alohaCohort struct{ p float64 }

// RoundProb implements radio.Cohort.
func (c *alohaCohort) RoundProb(int) float64 { return c.p }

//dglint:pooled reset=Aloha.ResetProcesses
type alohaProc struct {
	cohort *alohaCohort
	msg    *radio.Message //dglint:allow scratchreset: broadcaster frame (Origin = itself) is immutable, reused across trials
}

// TransmitProb implements radio.TransmitProber.
func (p *alohaProc) TransmitProb(int) float64 { return p.cohort.p }

// Step implements radio.Process.
func (p *alohaProc) Step(r int, rng *bitrand.Source) radio.Action {
	if rng.Coin(p.cohort.p) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *alohaProc) Deliver(int, *radio.Message) {}

// Frame implements radio.BulkStepper: Step is exactly one fixed-probability
// coin transmitting the broadcaster's own frame.
func (p *alohaProc) Frame(int) *radio.Message { return p.msg }

// Cohort implements radio.CohortMember: every broadcaster transmits at the
// slab's probability from round 0.
func (p *alohaProc) Cohort() (radio.Cohort, int) { return p.cohort, 0 }

var _ radio.CohortMember = (*alohaProc)(nil)
