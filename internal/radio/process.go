// Package radio implements the round-synchronous dual graph radio network
// simulation engine of the PODC 2013 model.
//
// An execution proceeds in synchronous rounds. Each round, every node either
// transmits a message or listens. The communication topology of round r is
// the reliable graph G plus the subset of E' \ E chosen by the link process
// (the adversary). A listening node u receives message m from v iff v is the
// only transmitter among u's topology neighbors; otherwise u hears silence
// (collisions are indistinguishable from silence; no collision detection).
//
// The engine enforces adversary visibility by interface shape: oblivious
// link processes commit a full schedule before round 1, online adaptive ones
// see state-determined transmit probabilities but not coins, and offline
// adaptive ones additionally see the realized transmitter set.
package radio

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
)

// Problem selects which broadcast problem an execution solves.
type Problem int

const (
	// GlobalBroadcast: a designated source disseminates one message to all.
	GlobalBroadcast Problem = iota + 1
	// LocalBroadcast: every node with a G-neighbor in the broadcaster set
	// must receive at least one message originating in the set.
	LocalBroadcast
	// Gossip (k-rumor spreading): every node must receive, for each of the
	// k sources, some message originating at that source. This is the
	// multi-message extension the paper's conclusion poses as future work.
	Gossip
)

// String implements fmt.Stringer.
func (p Problem) String() string {
	switch p {
	case GlobalBroadcast:
		return "global"
	case LocalBroadcast:
		return "local"
	case Gossip:
		return "gossip"
	default:
		return "unknown"
	}
}

// Spec describes a problem instance.
type Spec struct {
	Problem Problem
	// Source is the designated source for GlobalBroadcast.
	Source graph.NodeID
	// Broadcasters is the set B for LocalBroadcast.
	Broadcasters []graph.NodeID
	// Sources are the rumor origins for Gossip.
	Sources []graph.NodeID
	// Injections are additional Gossip rumors entering the system
	// mid-execution: rumor len(Sources)+j originates at Injections[j].Source
	// in round Injections[j].Round. The schedule is part of the problem
	// instance — algorithms may read it (injection-aware algorithms activate
	// the origin at its round), and the engine's gossip monitor counts every
	// injected rumor toward completion. A node may originate at most one
	// rumor: injection sources must be disjoint from Sources and from each
	// other. Only valid for Gossip.
	Injections []Injection
}

// Injection schedules one rumor's mid-execution entry for Gossip: Source
// learns (and starts disseminating) a fresh rumor at the start of Round.
// Round 0 is equivalent to listing the node in Spec.Sources.
type Injection struct {
	Source graph.NodeID
	Round  int
}

// NumRumors returns the total rumor count of a Gossip spec: initial sources
// plus scheduled injections.
func (s Spec) NumRumors() int { return len(s.Sources) + len(s.Injections) }

// Message is a transmitted frame. Messages are treated as opaque values by
// the engine; only Origin is inspected (by the problem monitors).
type Message struct {
	// Origin is the node whose problem input this message carries: the
	// global broadcast source, or the local broadcaster. Relays preserve it.
	Origin graph.NodeID
	// Payload is algorithm-defined (e.g. the shared permutation bits of the
	// Section 4.1 source message).
	Payload any
}

// Action is a node's choice for one round.
type Action struct {
	// Transmit is true to transmit Msg, false to listen.
	Transmit bool
	// Msg is the transmitted message; ignored when listening.
	Msg *Message
}

// Listen is the listening action.
func Listen() Action { return Action{} }

// Transmit returns a transmitting action.
func Transmit(m *Message) Action { return Action{Transmit: true, Msg: m} }

// Process is one node's randomized protocol. Each round, the engine calls
// Step (before delivery), then Deliver with the outcome. Two optional
// extensions let it skip calls whose outcome is known: a Dormant node is
// neither stepped nor handed silence while it waits for a message, and when
// every process is a BulkStepper the engine draws the coins itself and
// hands out only the messages that wake dormant nodes, never silence.
type Process interface {
	// Step decides the round-r action. rng is the node's private randomness;
	// all random choices must come from it so executions are reproducible.
	Step(r int, rng *bitrand.Source) Action
	// Deliver reports the round-r outcome: the received message, or nil for
	// silence/collision. Transmitters always receive nil (a radio cannot
	// hear while transmitting).
	Deliver(r int, msg *Message)
}

// TransmitProber is implemented by processes whose transmit decision in the
// upcoming round is a Bernoulli trial with a probability determined by
// current state. This is exactly the information an online adaptive link
// process may use (Theorem 3.1: "E[|X| | S] ... requires only the state at
// the beginning of the round, not the random choices made during it").
//
// All algorithms in this repository implement it.
type TransmitProber interface {
	// TransmitProb returns the probability of transmitting in round r given
	// the state at the beginning of r.
	TransmitProb(r int) float64
}

// BulkStepper is an optional Process extension for probability-profile
// protocols: processes whose Step is exactly one Bernoulli trial — flip the
// round's coin with probability TransmitProb(r) via rng.Coin (which draws no
// bits at probability 0 or 1), transmit Frame(r) on heads, listen on tails —
// with no other state change and no other randomness, and whose
// Deliver(r, nil) changes nothing, awake or dormant: silence and collisions
// leave TransmitProb, Frame and (when implemented) Dormant exactly as they
// were. Once the process is awake — it does not implement Dormant, or
// Dormant has reported false — Deliver(r, msg) changes nothing either, for
// every message: a node that waits for a message to act on must implement
// Dormant and wake on it. Decay-family (permuted decay too),
// fixed-probability (ALOHA), round-robin and derandomized processes are of
// this shape; processes with Step-side state, extra draws, a reaction to
// silence or a reaction to a message after waking must not implement it.
//
// When every process of an execution is a BulkStepper, under every delivery
// plan, the engine runs the round's coins itself instead of dispatching Step
// per node, and hands a process only the message that wakes it: no
// Deliver(r, nil) reaches any process, and no Deliver at all reaches an
// awake one. The coins come from each node's own stream in ascending node
// order — exactly the scalar Step order — so the draws are bit-for-bit
// identical, and since the withheld calls would have changed nothing, both
// paths produce the same execution (the bulk contract tests enforce this).
// The problem monitor still sees every reception. A single process that is
// not a BulkStepper puts the whole execution back on Step dispatch with
// silence and every message handed to every awake node. Dormant nodes (see
// Dormant) are never stepped on either path. When the awake bulk steppers
// also share one probability schedule (see CohortMember), the engine reads
// the round's probability once instead of asking each node for it.
type BulkStepper interface {
	Process
	TransmitProber
	// Frame returns the message the process would transmit on a heads coin
	// in round r; nil means a noise transmission, as in Action.Msg.
	Frame(r int) *Message
}

// Cohort is a probability schedule that a set of processes shares: in
// round r every member taking part transmits with probability RoundProb(r).
type Cohort interface {
	RoundProb(r int) float64
}

// CohortMember is an optional BulkStepper extension for processes that,
// once awake, follow a schedule shared by their slab, as decay's public
// geometric schedule and ALOHA's fixed probability are. Cohort reports the
// schedule c and the first round from in which the node takes part; once
// the node is awake, TransmitProb(r) must be c.RoundProb(r) for r ≥ from
// and 0 for r < from, and Frame(r) must be one message (one pointer, or
// nil) for every r, for the rest of the execution and across epoch swaps.
// RoundProb must depend on r alone, c must be a comparable value (the
// engine compares cohorts with ==), and Cohort must not allocate.
//
// The engine asks each node once, when it wakes, and keeps from and the
// node's frame. The execution's cohort is the first member's; it stays on
// while every node that wakes is a member naming a cohort == to it, and is
// off for the rest of the execution once a node that is not a member wakes,
// or a member names another one. While it is on, and every process is a
// BulkStepper, the round's coin loop evaluates RoundProb(r) once and draws
// one 53-bit coin per awake node with from ≤ r against one threshold
// (bitrand.CoinThreshold), and a heads transmits the kept frame, with no
// call per node; the adaptive view's TransmitProbs come from the same
// value. Both loops draw the same coins from the same streams in the same
// ascending order, so the execution is the one the per-node loop runs, and
// switching at a round boundary is exact.
type CohortMember interface {
	BulkStepper
	Cohort() (c Cohort, from int)
}

// Dormant is an optional Process extension for nodes that cannot act until
// a message reaches them, such as a node of a global broadcast that has not
// heard the source yet. The engine keeps a bitmap of awake nodes and its
// per-round loops visit only those: a node that reports dormant when the
// execution starts is neither stepped nor handed silence until a message
// wakes it, so a round costs the awake set instead of n.
//
// While Dormant reports true, the process must satisfy:
//   - Step returns Listen and draws nothing from its rng;
//   - TransmitProb, when implemented, is 0;
//   - Deliver(r, nil) changes nothing;
//   - Dormant keeps reporting true.
//
// Only a non-nil Deliver may end dormancy. The engine asks Dormant again
// right after handing a dormant node a message (a message may leave it
// dormant, e.g. a foreign payload), and once the node reports false it stays
// awake for the rest of the execution, across epoch swaps. Under this
// contract skipping a dormant node is unobservable: stepping it would have
// drawn no coins from its own stream, and silence would have changed
// nothing, so the execution is bit-for-bit the one with every node awake.
type Dormant interface {
	Process
	// Dormant reports whether the process is still waiting for a message.
	Dormant() bool
}

// EpochAware is an optional Process extension for algorithms that derive
// per-topology structure (a decomposition, a schedule) from the network.
// When an execution runs under an epoch schedule, the engine invokes OnEpoch
// on every implementing process at each epoch boundary, after the engine's
// own views have re-hoisted to the new revision, so the process can re-key
// its derived structure the same way the engine re-keys the clique cover.
// OnEpoch is never called for epoch 0 — NewProcesses already saw that
// network — and must not retain net-derived views beyond the next swap
// except through per-graph memos (which re-key by construction).
type EpochAware interface {
	Process
	// OnEpoch reports that the topology advanced to epoch index epoch with
	// network net.
	OnEpoch(epoch int, net *graph.Dual)
}

// Algorithm constructs the per-node processes for a network and problem
// instance. Factories are what oblivious adversaries are allowed to know:
// the algorithm description, not its coins. Sampling adversaries use the
// factory to pre-simulate executions with fresh randomness.
type Algorithm interface {
	// Name identifies the algorithm in traces and result tables.
	Name() string
	// NewProcesses returns one fresh process per node of the network.
	// Implementations draw any construction-time randomness (e.g. the
	// Section 4.1 source bits) from rng.
	NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process
}

// ProcessFactory is an optional extension of Algorithm for the engine's
// process arena: the experiment harness runs tens of thousands of short
// trials of the same (algorithm, network, spec) configuration, and a factory
// lets the engine reinitialize the previous trial's process slab in place
// instead of allocating a fresh one per trial.
//
// The engine only offers a slab back to the factory whose Name produced it,
// on the same network pointer and an element-wise-equal spec. ResetProcesses
// must then leave every process in exactly the state NewProcesses would
// produce for (net, spec, rng) — all parameter-derived state recomputed from
// the receiver, all cross-trial state cleared, construction randomness drawn
// from rng in the same order — so that pooling is observationally invisible
// (the determinism tests enforce this). It reports false if the slab cannot
// be reused (e.g. a process has an unexpected type because two algorithms
// share a Name); the engine then discards the slab and falls back to
// NewProcesses with an identically derived rng, so a failed reset may leave
// the slab half-mutated and may even have consumed rng bits.
type ProcessFactory interface {
	Algorithm
	ResetProcesses(procs []Process, net *graph.Dual, spec Spec, rng *bitrand.Source) bool
}
