// Package adversary implements the link processes (adversaries) of the
// three classical classes studied in the paper.
//
// Oblivious (commit everything before round 1):
//   - Static: a fixed selector every round (e.g. always-all = the protocol
//     model on G', always-none = the protocol model on G).
//   - RandomLoss: every unreliable edge appears independently each round
//     with probability P — the naive i.i.d. model the paper argues is too
//     weak to capture real unreliability.
//   - Presample: the Theorems 3.1/4.3 mechanism made executable. Knowing
//     the algorithm (but not its coins), it pre-simulates the execution with
//     fresh randomness under sparse dynamics, labels each round dense or
//     sparse by the sampled transmitter count (the Lemma 4.4/4.5 isolated
//     broadcast function machinery), and commits: dense → all unreliable
//     edges (collision smothering), sparse → none (isolation). The seeds are
//     fixed at commit and the labels computed on demand, so the
//     presimulations reach only as far as the execution consults, each
//     run once and suspended between the rounds it is asked about.
//
// Online adaptive:
//   - DenseSparse: the Theorem 3.1 adversary. Each round it computes
//     E[|X| | S] = Σ_u Pr[u transmits] from state-determined probabilities
//     (no coins) and smothers dense rounds / isolates sparse ones.
//
// Offline adaptive:
//   - Jam: the Ω(n) mechanism of [11]. Seeing the realized transmitter set,
//     it includes every unreliable edge whenever ≥ 2 nodes transmit (all
//     listeners near any pair collide) and isolates singleton rounds.
package adversary

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Static is an oblivious link process that uses the same edge selection
// every round.
type Static struct {
	Selector graph.EdgeSelector
}

var _ radio.ObliviousLink = Static{}

// CommitSchedule implements radio.ObliviousLink.
func (s Static) CommitSchedule(*radio.Env) radio.Schedule {
	sel := s.Selector
	if sel == nil {
		sel = graph.SelectNone{}
	}
	return radio.StaticSchedule{Selector: sel}
}

// AlwaysAll returns the static adversary that includes every unreliable edge
// each round: the protocol model on G'.
func AlwaysAll() Static { return Static{Selector: graph.SelectAll{}} }

// AlwaysNone returns the static adversary that never includes an unreliable
// edge: the protocol model on G.
func AlwaysNone() Static { return Static{Selector: graph.SelectNone{}} }

// RandomLoss is the oblivious i.i.d. adversary: each unreliable edge is
// present each round independently with probability P. Decisions are a hash
// of (seed, round, edge) with the seed drawn from the adversary's committed
// randomness, so the schedule is fixed before round 1 without materializing
// it.
type RandomLoss struct {
	// P is the per-edge per-round presence probability.
	P float64
}

var _ radio.ObliviousLink = RandomLoss{}

// CommitSchedule implements radio.ObliviousLink.
func (a RandomLoss) CommitSchedule(env *radio.Env) radio.Schedule {
	seed := env.Rng.Uint64()
	p := a.P
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return radio.ScheduleFunc(func(r int) graph.EdgeSelector {
		switch {
		case p == 0:
			return graph.SelectNone{}
		case p == 1:
			return graph.SelectAll{}
		}
		return graph.SelectFunc{F: func(u, v graph.NodeID) bool {
			k := graph.MakeEdgeKey(u, v)
			return bitrand.HashFloat(seed, uint64(r), uint64(k.U), uint64(k.V)) < p
		}}
	})
}

// DenseSparse is the online adaptive adversary of Theorem 3.1. At the start
// of each round it computes the expected transmitter count given the nodes'
// states, E[|X| | S] = Σ_u Pr[u transmits | state]. If the round is dense
// (expectation above C·ln n) it includes every unreliable edge, turning
// clique-like G' neighborhoods into collision chambers; otherwise it
// includes none, isolating the G components. Against any algorithm whose
// informed nodes behave symmetrically this forces Ω(n / log n) rounds on
// the dual clique network.
type DenseSparse struct {
	// C scales the dense threshold C·ln n (default 2).
	C float64
	// SameSideSparse, when set, keeps same-side unreliable edges alive in
	// sparse rounds (the paper's adversary only removes the A–B edges). For
	// the dual clique and bracelet all unreliable edges cross, so the
	// default (remove everything) is equivalent.
	SameSideSparse func(u graph.NodeID) bool
}

var _ radio.OnlineAdaptiveLink = DenseSparse{}

// Threshold returns the dense cutoff for a network of n nodes.
func (a DenseSparse) Threshold(n int) float64 {
	c := a.C
	if c <= 0 {
		c = 2
	}
	return c * bitrand.NaturalLog(n)
}

// ChooseOnline implements radio.OnlineAdaptiveLink.
func (a DenseSparse) ChooseOnline(env *radio.Env, view *radio.View) graph.EdgeSelector {
	if view.SumTransmitProbs() > a.Threshold(env.Net.N()) {
		return graph.SelectAll{}
	}
	if a.SameSideSparse != nil {
		return graph.SelectCrossCut{InA: a.SameSideSparse}
	}
	return graph.SelectNone{}
}

// Jam is the offline adaptive adversary realizing the Ω(n) bounds of [11]:
// it observes the realized transmitter set each round. With two or more
// transmitters it includes every unreliable edge, so every listener in a
// G'-clique neighborhood hears a collision; with at most one it includes
// none, confining the lone delivery to reliable edges. On the dual clique a
// message crosses between the cliques only when a bridge endpoint transmits
// while *no other node in the network* transmits — an event of probability
// O(1/n) per round for any symmetric strategy.
type Jam struct{}

var _ radio.OfflineAdaptiveLink = Jam{}

// ChooseOffline implements radio.OfflineAdaptiveLink.
func (Jam) ChooseOffline(env *radio.Env, view *radio.View, tx []graph.NodeID) graph.EdgeSelector {
	if len(tx) >= 2 {
		return graph.SelectAll{}
	}
	return graph.SelectNone{}
}
