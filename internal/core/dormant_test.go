package core

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TestDormantContract drives one dormant node of every radio.Dormant
// implementer through the contract the engine relies on when it skips
// dormant nodes: over several phases of nil deliveries (and, for permuted
// decay, a foreign message) the node declares probability 0, listens
// without drawing a bit, and stays dormant. The source's message then wakes
// it — except a silentProc, which has no role to wake into.
func TestDormantContract(t *testing.T) {
	net, _ := graph.DualClique(32, 2)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	// 512 rounds span six permuted decay blocks (16·log n = 80 rounds at
	// n = 32), sixteen round-robin cycles and over a hundred decay phases.
	const rounds = 512
	cases := []struct {
		name    string
		alg     radio.Algorithm
		spec    radio.Spec
		foreign bool
		wakes   bool
	}{
		{"decay-global", DecayGlobal{}, global, false, true},
		{"permuted-global", PermutedGlobal{}, global, true, true},
		{"round-robin", RoundRobin{}, global, false, true},
		{"derand", DerandBroadcast{}, global, false, true},
		{"silent", DecayLocal{}, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0}}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			procs := tc.alg.NewProcesses(net, tc.spec, bitrand.New(1))
			const u = 7
			d, ok := procs[u].(radio.Dormant)
			if !ok || !d.Dormant() {
				t.Fatalf("node %d (%T) is not a dormant radio.Dormant", u, procs[u])
			}
			tp := procs[u].(radio.TransmitProber)
			rng := bitrand.New(2)
			for r := 0; r < rounds; r++ {
				if p := tp.TransmitProb(r); p != 0 {
					t.Fatalf("round %d: dormant TransmitProb = %v, want 0", r, p)
				}
				before := rng.Consumed()
				if act := d.Step(r, rng); act != radio.Listen() {
					t.Fatalf("round %d: dormant Step = %+v, want Listen", r, act)
				}
				if drawn := rng.Consumed() - before; drawn != 0 {
					t.Fatalf("round %d: dormant Step drew %d bits", r, drawn)
				}
				d.Deliver(r, nil)
				if tc.foreign && r == rounds/2 {
					d.Deliver(r, &radio.Message{Origin: 3, Payload: "foreign"})
				}
				if !d.Dormant() {
					t.Fatalf("round %d: node woke without a message", r)
				}
			}
			d.Deliver(rounds, sourceMessage(t, procs[0]))
			if d.Dormant() == tc.wakes {
				t.Fatalf("after the source's message Dormant() = %v, want %v", d.Dormant(), !tc.wakes)
			}
		})
	}
}

// sourceMessage steps src on a stream of its own until it transmits and
// returns the frame.
func sourceMessage(t *testing.T, src radio.Process) *radio.Message {
	t.Helper()
	rng := bitrand.New(3)
	for r := 0; r < 4096; r++ {
		if act := src.Step(r, rng); act.Transmit && act.Msg != nil {
			return act.Msg
		}
	}
	t.Fatal("source never transmitted")
	return nil
}
