package core

import (
	"math"
	"reflect"
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

// TestBulkStepperSilenceContract drives one node of every radio.BulkStepper
// implementer, awake and (where it can be) dormant, through the two clauses
// the engine relies on when it hands bulk steppers only the messages that
// wake them. Silence: over 512 rounds of Deliver(r, nil) the node must
// declare the same transmit probability, frame and dormancy as a twin that
// hears nothing, and its Step must take the same action and draw the same
// bits from a same-seed stream. Messages: an awake node handed the source's
// message every round must match the same twin. The silent node never
// wakes; it is handed the message while dormant and must match too.
func TestBulkStepperSilenceContract(t *testing.T) {
	net, _ := graph.DualClique(32, 2)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7}}
	const rounds = 512
	cases := []struct {
		name string
		alg  radio.Algorithm
		spec radio.Spec
		u    graph.NodeID
		// wake hands both twins the source's message before round 1.
		wake bool
		// message hands the node the source's message every round instead
		// of silence.
		message bool
	}{
		{"decay-global/source", DecayGlobal{}, global, 0, false, false},
		{"decay-global/awake", DecayGlobal{}, global, 7, true, false},
		{"decay-global/dormant", DecayGlobal{}, global, 7, false, false},
		{"decay-local/awake", DecayLocal{}, local, 7, false, false},
		{"silent/dormant", DecayLocal{}, local, 9, false, false},
		{"round-robin/awake", RoundRobin{}, global, 7, true, false},
		{"round-robin/dormant", RoundRobin{}, global, 7, false, false},
		{"aloha/awake", Aloha{P: 0.3}, local, 7, false, false},
		{"derand/awake", DerandBroadcast{}, global, 7, true, false},
		{"derand/dormant", DerandBroadcast{}, global, 7, false, false},
		{"permuted-global/source", PermutedGlobal{}, global, 0, false, false},
		{"permuted-global/awake", PermutedGlobal{}, global, 7, true, false},
		{"permuted-global/dormant", PermutedGlobal{}, global, 7, false, false},
		{"decay-global/source/message", DecayGlobal{}, global, 0, false, true},
		{"decay-global/awake/message", DecayGlobal{}, global, 7, true, true},
		{"decay-local/awake/message", DecayLocal{}, local, 7, false, true},
		{"silent/dormant/message", DecayLocal{}, local, 9, false, true},
		{"round-robin/awake/message", RoundRobin{}, global, 7, true, true},
		{"aloha/awake/message", Aloha{P: 0.3}, local, 7, false, true},
		{"derand/awake/message", DerandBroadcast{}, global, 7, true, true},
		{"permuted-global/source/message", PermutedGlobal{}, global, 0, false, true},
		{"permuted-global/awake/message", PermutedGlobal{}, global, 7, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			procs := tc.alg.NewProcesses(net, tc.spec, bitrand.New(1))
			twins := tc.alg.NewProcesses(net, tc.spec, bitrand.New(1))
			p, ok := procs[tc.u].(radio.BulkStepper)
			if !ok {
				t.Fatalf("node %d (%T) is not a radio.BulkStepper", tc.u, procs[tc.u])
			}
			twin := twins[tc.u].(radio.BulkStepper)
			// The message comes from a third slab, so stepping its source
			// moves neither twin.
			msg := sourceMessage(t, tc.alg.NewProcesses(net, tc.spec, bitrand.New(1))[0])
			if tc.wake {
				p.Deliver(0, msg)
				twin.Deliver(0, msg)
			}
			var heard *radio.Message
			if tc.message {
				heard = msg
			}
			if d, ok := p.(radio.Dormant); ok && d.Dormant() == (tc.wake || tc.u == tc.spec.Source) {
				t.Fatalf("Dormant() = %v, not the state the case names", d.Dormant())
			}
			rng, twinRng := bitrand.New(2), bitrand.New(2)
			for r := 1; r <= rounds; r++ {
				if a, b := p.TransmitProb(r), twin.TransmitProb(r); a != b {
					t.Fatalf("round %d: TransmitProb %v after hearing %v, %v without", r, a, heard, b)
				}
				// Frames compare by content: permuted decay's carries a
				// pointer to its own slab's bit string.
				if a, b := p.Frame(r), twin.Frame(r); (a == nil) != (b == nil) || a != nil && !reflect.DeepEqual(*a, *b) {
					t.Fatalf("round %d: Frame %+v after hearing %v, %+v without", r, a, heard, b)
				}
				if d, ok := p.(radio.Dormant); ok && d.Dormant() != twin.(radio.Dormant).Dormant() {
					t.Fatalf("round %d: Dormant %v after hearing %v", r, d.Dormant(), heard)
				}
				a, b := p.Step(r, rng), twin.Step(r, twinRng)
				if a.Transmit != b.Transmit || rng.Consumed() != twinRng.Consumed() {
					t.Fatalf("round %d: Step transmits %v drawing %d bits after hearing %v, %v drawing %d without",
						r, a.Transmit, rng.Consumed(), heard, b.Transmit, twinRng.Consumed())
				}
				p.Deliver(r, heard)
			}
		})
	}
}

// TestDecayProbExact pins decay's probability schedule to math.Ldexp at
// every level a network can reach: round r of a 64-level phase uses
// 2^-(1 + r mod 64), in decay global and decay local alike.
func TestDecayProbExact(t *testing.T) {
	g := &decayGlobalProc{levels: 64}
	l := &decayLocalProc{levels: 64}
	for i := 1; i <= 64; i++ {
		want := math.Ldexp(1, -i)
		for _, r := range []int{i - 1, i - 1 + 64, i - 1 + 64*1000} {
			if got := g.prob(r); got != want {
				t.Fatalf("decay global round %d: prob %v, want 2^-%d = %v", r, got, i, want)
			}
			if got := l.prob(r); got != want {
				t.Fatalf("decay local round %d: prob %v, want 2^-%d = %v", r, got, i, want)
			}
		}
	}
}
