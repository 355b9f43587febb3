package core

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TestRoundRobinResetMatchesFresh exercises the pooled-slab contract of the
// deterministic baseline: after a trial's worth of relay adoptions a reset
// slab must be observationally identical to a fresh one, out-of-range specs
// must not panic (the engine's monitor reports them), and a slab of foreign
// processes must be refused.
func TestRoundRobinResetMatchesFresh(t *testing.T) {
	net := graph.TwoCliques(24)
	spec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 3}
	rng := bitrand.New(11)
	alg := RoundRobin{}
	procs := alg.NewProcesses(net, spec, rng)
	for u, p := range procs {
		p.Deliver(5, &radio.Message{Origin: (u + 7) % net.N()})
	}
	if !alg.ResetProcesses(procs, net, spec, rng) {
		t.Fatal("reset of the factory's own slab refused")
	}
	fresh := alg.NewProcesses(net, spec, rng)
	for u := range procs {
		got, want := procs[u].(*roundRobinProc), fresh[u].(*roundRobinProc)
		if got.id != want.id || got.n != want.n ||
			(got.msg == nil) != (want.msg == nil) ||
			(got.msg != nil && got.msg.Origin != want.msg.Origin) {
			t.Fatalf("node %d: reset state differs from fresh state", u)
		}
		for r := 0; r < 2*net.N(); r++ {
			if got.TransmitProb(r) != want.TransmitProb(r) {
				t.Fatalf("node %d: transmit schedule differs at round %d after reset", u, r)
			}
		}
		if got.Frame(0) != got.msg {
			t.Fatalf("node %d: Frame does not return the held message", u)
		}
	}

	// Out-of-range sources are the monitor's problem, not a panic.
	for _, bad := range []graph.NodeID{-1, net.N()} {
		if !alg.ResetProcesses(procs, net, radio.Spec{Problem: radio.GlobalBroadcast, Source: bad}, rng) {
			t.Fatalf("reset with out-of-range source %d refused", bad)
		}
	}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{1, net.N() + 4}}
	if !alg.ResetProcesses(procs, net, local, rng) {
		t.Fatal("reset with out-of-range broadcaster refused")
	}
	if procs[1].(*roundRobinProc).msg == nil {
		t.Fatal("in-range broadcaster not seeded")
	}

	foreign := Aloha{}.NewProcesses(net, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{1}}, rng)
	if alg.ResetProcesses(foreign, net, spec, rng) {
		t.Fatal("reset accepted a foreign slab")
	}
}

// TestAlohaReset pins Aloha's slab reuse: a reset re-derives the transmit
// probability from the receiver (clamping exactly like NewProcesses), leaves
// silent listeners alone, and refuses foreign slabs.
func TestAlohaReset(t *testing.T) {
	net := graph.UniformDual(graph.Ring(12))
	spec := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 4, 8}}
	rng := bitrand.New(5)
	procs := Aloha{P: 0.25}.NewProcesses(net, spec, rng)

	cases := []struct {
		alg  Aloha
		want float64
	}{
		{Aloha{P: 0.75}, 0.75},
		{Aloha{}, 0.5},      // P <= 0 defaults to 1/2
		{Aloha{P: 3}, 1},    // P > 1 clamps to 1
		{Aloha{P: -1}, 0.5}, // negative is the same default
	}
	for _, tc := range cases {
		if !tc.alg.ResetProcesses(procs, net, spec, rng) {
			t.Fatalf("Aloha{P:%v}: reset refused", tc.alg.P)
		}
		var shared *alohaCohort
		for u, p := range procs {
			ap, ok := p.(*alohaProc)
			if !ok {
				continue // silent listener
			}
			if ap.cohort.p != tc.want {
				t.Fatalf("Aloha{P:%v}: node %d prob %v, want %v", tc.alg.P, u, ap.cohort.p, tc.want)
			}
			if shared == nil {
				shared = ap.cohort
			} else if ap.cohort != shared {
				t.Fatalf("Aloha{P:%v}: node %d holds a cohort of its own, not the slab's", tc.alg.P, u)
			}
			if ap.TransmitProb(0) != tc.want {
				t.Fatalf("Aloha{P:%v}: node %d TransmitProb disagrees with state", tc.alg.P, u)
			}
			if ap.Frame(0) != ap.msg || ap.msg.Origin != u {
				t.Fatalf("node %d: Frame is not the broadcaster's own message", u)
			}
			ap.Deliver(0, &radio.Message{Origin: 99}) // no-op for broadcasters
			if ap.msg.Origin != u {
				t.Fatalf("node %d: Deliver mutated the broadcaster frame", u)
			}
		}
	}

	foreign := RoundRobin{}.NewProcesses(net, spec, rng)
	if (Aloha{}).ResetProcesses(foreign, net, spec, rng) {
		t.Fatal("reset accepted a foreign slab")
	}
}
