package core

import (
	"math"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// probeLink is an offline adaptive link process used as a measurement probe:
// it checks that every realized transmitter declared a positive probability,
// and accumulates expected vs. actual transmission counts.
type probeLink struct {
	t        *testing.T
	expected float64
	actual   int
}

func (p *probeLink) ChooseOffline(env *radio.Env, view *radio.View, tx []graph.NodeID) graph.EdgeSelector {
	for _, prob := range view.TransmitProbs {
		if prob < 0 || prob > 1 {
			p.t.Fatalf("round %d: declared probability %v outside [0,1]", view.Round, prob)
		}
		p.expected += prob
	}
	for _, u := range tx {
		if view.TransmitProbs[u] <= 0 {
			p.t.Fatalf("round %d: node %d transmitted with declared probability 0", view.Round, u)
		}
	}
	p.actual += len(tx)
	return graph.SelectNone{}
}

// TestTransmitProberContract verifies, for every algorithm in the
// repository, that (a) nodes never transmit when their declared probability
// is zero and (b) the realized transmission count matches the declared
// expectation within sampling noise. This is the property the online
// adaptive adversary of Theorem 3.1 relies on: E[|X| | S] computed from
// declared probabilities really is the expected transmitter count.
func TestTransmitProberContract(t *testing.T) {
	type tc struct {
		name string
		alg  radio.Algorithm
		net  *graph.Dual
		spec radio.Spec
	}
	geo := geoNet(t, 5, 5)
	geoB := everyThird(geo.N())
	dual, m := graph.DualClique(32, 2)
	var dualB []graph.NodeID
	for u := 0; u < m.SizeA; u++ {
		dualB = append(dualB, u)
	}
	cases := []tc{
		{"decay-global", DecayGlobal{}, dual, radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}},
		{"permuted-global", PermutedGlobal{}, dual, radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}},
		{"decay-local", DecayLocal{}, dual, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: dualB}},
		{"geo-local", GeoLocal{}, geo, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: geoB}},
		{"geo-local-noseeds", GeoLocal{DisableSeedSharing: true}, geo, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: geoB}},
		{"round-robin", RoundRobin{}, dual, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: dualB}},
		{"aloha", Aloha{P: 0.3}, dual, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: dualB}},
		{"permuted-local-uncoordinated", PermutedLocalUncoordinated{}, dual, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: dualB}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probe := &probeLink{t: t}
			_, err := radio.Run(radio.Config{
				Net:              c.net,
				Algorithm:        c.alg,
				Spec:             c.spec,
				Link:             probe,
				Seed:             13,
				MaxRounds:        3000,
				IgnoreCompletion: true, // keep sampling after completion
			})
			if err != nil {
				t.Fatal(err)
			}
			if probe.expected == 0 && probe.actual == 0 {
				t.Fatal("algorithm never declared nor made any transmission")
			}
			// 6σ binomial tolerance (σ ≤ sqrt(expected)).
			tol := 6 * math.Sqrt(probe.expected+1)
			if diff := math.Abs(probe.expected - float64(probe.actual)); diff > tol {
				t.Fatalf("declared expectation %.1f vs realized %d transmissions (diff %.1f > tol %.1f)",
					probe.expected, probe.actual, diff, tol)
			}
		})
	}
}

// TestCohortContract drives every radio.CohortMember awake — the decay
// global source, decay global nodes informed at several rounds, and decay
// local and ALOHA broadcasters — and checks the contract the engine's
// cohort loop relies on: over five phases after waking, TransmitProb(r) is
// the cohort's RoundProb(r) from the node's first round on and 0 before it,
// Frame(r) is one pointer in every round, and still that pointer after a
// second message from another origin, one slab's members name == cohorts,
// and Cohort allocates nothing. A decay global node other than the source
// starts after round 0, since its cohort's round-0 probability is the
// source's.
func TestCohortContract(t *testing.T) {
	net, _ := graph.DualClique(32, 2)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7, 12}}
	levels := bitrand.LogN(net.N())
	// A member is woken by the source's message at round at, or is awake
	// from the start when at is negative.
	type member struct {
		u  graph.NodeID
		at int
	}
	informed := []member{{0, -1}}
	for i, at := range []int{0, 1, levels - 1, levels, 3*levels + 2} {
		informed = append(informed, member{7 + i, at})
	}
	cases := []struct {
		name    string
		alg     radio.Algorithm
		spec    radio.Spec
		members []member
	}{
		{"decay-global", DecayGlobal{}, global, informed},
		{"decay-local", DecayLocal{}, local, []member{{0, -1}, {7, -1}, {12, -1}}},
		{"aloha", Aloha{P: 0.3}, local, []member{{0, -1}, {7, -1}, {12, -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			procs := tc.alg.NewProcesses(net, tc.spec, bitrand.New(1))
			msg := sourceMessage(t, tc.alg.NewProcesses(net, tc.spec, bitrand.New(1))[0])
			var slab radio.Cohort
			for _, mb := range tc.members {
				m, ok := procs[mb.u].(radio.CohortMember)
				if !ok {
					t.Fatalf("node %d (%T) is not a radio.CohortMember", mb.u, procs[mb.u])
				}
				if mb.at >= 0 {
					m.Deliver(mb.at, msg)
				}
				if d, ok := m.(radio.Dormant); ok && d.Dormant() {
					t.Fatalf("node %d is still dormant after the source's message", mb.u)
				}
				c, from := m.Cohort()
				if allocs := testing.AllocsPerRun(100, func() { c, from = m.Cohort() }); allocs != 0 {
					t.Fatalf("node %d: Cohort allocates %v times", mb.u, allocs)
				}
				if slab == nil {
					slab = c
				} else if c != slab {
					t.Fatalf("node %d names cohort %v, the slab's first member %v", mb.u, c, slab)
				}
				if mb.u != tc.spec.Source && tc.spec.Problem == radio.GlobalBroadcast && from <= 0 {
					t.Fatalf("node %d starts at round %d, not after the source's round 0", mb.u, from)
				}
				frame := m.Frame(from)
				sameFrame := func(after string) {
					t.Helper()
					for r := mb.at + 1; r <= mb.at+1+5*levels; r++ {
						if got := m.Frame(r); got != frame {
							t.Fatalf("node %d, round %d%s: Frame %p, not its first round's %p", mb.u, r, after, got, frame)
						}
					}
				}
				for r := mb.at + 1; r <= mb.at+1+5*levels; r++ {
					want := 0.0
					if r >= from {
						want = c.RoundProb(r)
					}
					if got := m.TransmitProb(r); got != want {
						t.Fatalf("node %d, round %d (first round %d): TransmitProb %v, cohort says %v", mb.u, r, from, got, want)
					}
				}
				sameFrame("")
				m.Deliver(mb.at+2, &radio.Message{Origin: mb.u + 1})
				sameFrame(" after a foreign message")
			}
		})
	}
	// Schedules of different algorithms, or of other level counts, are
	// different cohorts.
	dl := DecayLocal{}.NewProcesses(net, local, bitrand.New(1))[0].(radio.CohortMember)
	dg := DecayGlobal{}.NewProcesses(net, global, bitrand.New(1))[0].(radio.CohortMember)
	big, _ := graph.DualClique(300, 2)
	dgBig := DecayGlobal{}.NewProcesses(big, global, bitrand.New(1))[0].(radio.CohortMember)
	cl, _ := dl.Cohort()
	cg, _ := dg.Cohort()
	cb, _ := dgBig.Cohort()
	if cl == cg || cg == cb {
		t.Fatalf("distinct schedules compare equal: local %v, global %v, global at n = 300 %v", cl, cg, cb)
	}
}
