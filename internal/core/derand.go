package core

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// DerandBroadcast is the derandomized broadcast family: broadcast scheduled
// over the deterministic network decomposition of the reliable graph
// (graph.DecompositionOf). Each round belongs to one color's phase; within a
// phase, every cluster of that color designates exactly one member as its
// transmitter (Decomposition.Owns), and a node transmits iff it holds a
// message and owns the slot. Same-color clusters are non-adjacent in G, so
// during a cluster's own phase its listeners hear their cluster-mate
// transmitter collision-free over reliable edges; cross-cluster delivery
// rides the other phases, with a per-sweep hashed rotation varying which
// owners coincide so fringe-edge collisions never lock into a cycle.
//
// The schedule is a pure function of (graph, round): the algorithm draws no
// randomness at all, at construction time or runtime. That is the property
// the EXT-derand experiment isolates — a sampling-oblivious adversary that
// presimulates the algorithm predicts it exactly, and so gains nothing over
// what it could precompute from the graph — and it is also why the detrand
// analyzer passes over this file with no allowances: there is nothing to
// allow. With transmit probabilities always 0 or 1, the BulkStepper coin
// draws no bits, and with no construction coins the process arena reset is
// trivially faithful.
type DerandBroadcast struct{}

var _ radio.ProcessFactory = DerandBroadcast{}

// Name implements radio.Algorithm.
func (DerandBroadcast) Name() string { return "derand" }

// NewProcesses implements radio.Algorithm. rng is never drawn from.
func (DerandBroadcast) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	dec := graph.DecompositionOf(net.G())
	n := net.N()
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		procs[u] = &derandProc{id: u, dec: dec}
	}
	assignDerandMessages(procs, spec)
	return procs
}

// ResetProcesses implements radio.ProcessFactory. The decomposition is
// re-fetched from the memo (same graph ⇒ same pointer) and all cross-trial
// state cleared; with no construction randomness the reset is exactly
// NewProcesses.
func (DerandBroadcast) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	dec := graph.DecompositionOf(net.G())
	for u := range procs {
		p, ok := procs[u].(*derandProc)
		if !ok {
			return false
		}
		p.id, p.dec = u, dec
		p.msg = nil
	}
	assignDerandMessages(procs, spec)
	return true
}

// assignDerandMessages hands initial messages to the source (global) or the
// broadcasters (local), reusing each holder's own cached frame across trials
// (relays overwrite msg, never own).
func assignDerandMessages(procs []radio.Process, spec radio.Spec) {
	hold := func(u graph.NodeID) {
		if u < 0 || u >= len(procs) {
			return // out-of-range spec; the engine's monitor reports it
		}
		p := procs[u].(*derandProc)
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

//dglint:pooled reset=DerandBroadcast.ResetProcesses
type derandProc struct {
	id  graph.NodeID
	dec *graph.Decomposition
	msg *radio.Message // nil until the node holds a message
	own *radio.Message // the node's own initial frame, nil for relays
}

// TransmitProb implements radio.TransmitProber: always 0 or 1, the schedule
// is deterministic.
func (p *derandProc) TransmitProb(r int) float64 {
	if p.msg != nil && p.dec.Owns(p.id, r) {
		return 1
	}
	return 0
}

// Step implements radio.Process.
func (p *derandProc) Step(r int, rng *bitrand.Source) radio.Action {
	if p.msg != nil && p.dec.Owns(p.id, r) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *derandProc) Deliver(r int, msg *radio.Message) {
	if msg != nil && p.msg == nil {
		p.msg = msg // relay
	}
}

// Frame implements radio.BulkStepper: the transmit decision is a 0/1
// probability, never a real coin, and the frame is the held message.
func (p *derandProc) Frame(int) *radio.Message { return p.msg }

// Dormant implements radio.Dormant: a node without a message never transmits.
func (p *derandProc) Dormant() bool { return p.msg == nil }

// OnEpoch implements radio.EpochAware: topology churn re-keys the
// decomposition to the new revision's memo, the same way the engine re-keys
// the clique cover at an epoch swap. Held messages persist — nodes survive
// churn; only the schedule re-derives.
func (p *derandProc) OnEpoch(epoch int, net *graph.Dual) {
	p.dec = graph.DecompositionOf(net.G())
}

var (
	_ radio.BulkStepper = (*derandProc)(nil)
	_ radio.Dormant     = (*derandProc)(nil)
	_ radio.EpochAware  = (*derandProc)(nil)
)
