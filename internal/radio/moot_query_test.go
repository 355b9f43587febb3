package radio

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// selectorQuery is one Includes call: the transmitter and the listener the
// engine asked about in a round.
type selectorQuery struct {
	round  int
	tx, rx graph.NodeID
}

// countingSelector forwards to a partial selector and logs every query.
type countingSelector struct {
	graph.EdgeSelector
	round int
	log   *[]selectorQuery
}

func (c countingSelector) Includes(v, u graph.NodeID) bool {
	*c.log = append(*c.log, selectorQuery{round: c.round, tx: v, rx: u})
	return c.EdgeSelector.Includes(v, u)
}

// countingLink commits a schedule that wraps each round's selector in a
// countingSelector.
type countingLink struct {
	sel func(r int) graph.EdgeSelector
	log *[]selectorQuery
}

func (l countingLink) CommitSchedule(*Env) Schedule {
	return ScheduleFunc(func(r int) graph.EdgeSelector {
		return countingSelector{EdgeSelector: l.sel(r), round: r, log: l.log}
	})
}

// TestPartialSelectorSkipsMootQueries pins the moot-query skip on the CSR
// walk: a partial selector is never asked about a listener that transmits,
// it is asked strictly less often than once per transmitter and unreliable
// neighbour, and every round still delivers exactly what the reference
// computes with every query answered.
func TestPartialSelectorSkipsMootQueries(t *testing.T) {
	dual, _ := graph.DualClique(32, 3)
	var fringe []graph.EdgeKey
	keep := true
	for u := 0; u < dual.N(); u++ {
		for _, v := range dual.ExtraNeighbors(u) {
			if v > u {
				if keep {
					fringe = append(fringe, graph.EdgeKey{U: u, V: v})
				}
				keep = !keep
			}
		}
	}
	halfFringe := graph.NewSelectSet(fringe)
	s := bitrand.New(77)
	random := graph.RandomDual(s, graph.ErdosRenyi(s, 40, 0.2), 0.4)
	hashed := func(r int) graph.EdgeSelector {
		return graph.SelectFunc{F: func(u, v graph.NodeID) bool {
			k := graph.MakeEdgeKey(u, v)
			return bitrand.HashFloat(0x5e1ec7, uint64(r), uint64(k.U), uint64(k.V)) < 0.5
		}}
	}
	cases := []struct {
		name  string
		net   *graph.Dual
		sel   func(r int) graph.EdgeSelector
		cover bool
	}{
		{"dual-clique/half-fringe/cover", dual, func(int) graph.EdgeSelector { return halfFringe }, true},
		{"dual-clique/hashed", dual, hashed, false},
		{"random/hashed", random, hashed, false},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.1, 0.35} {
			for seed := uint64(1); seed <= 3; seed++ {
				var log []selectorQuery
				rec := &MemRecorder{}
				_, err := Run(Config{
					Net:              tc.net,
					Algorithm:        coinAlg{p: p},
					Spec:             Spec{Problem: GlobalBroadcast, Source: 0},
					Link:             countingLink{sel: tc.sel, log: &log},
					Seed:             seed,
					MaxRounds:        40,
					Recorder:         rec,
					UseCliqueCover:   tc.cover,
					IgnoreCompletion: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				naive := 0
				txOf := make([]map[graph.NodeID]bool, len(rec.Rounds))
				for i, round := range rec.Rounds {
					txOf[i] = make(map[graph.NodeID]bool, len(round.Transmitters))
					for _, v := range round.Transmitters {
						txOf[i][v] = true
						naive += len(tc.net.ExtraRow(v))
					}
					want := ReferenceDeliveries(tc.net, round.Selector.(countingSelector).EdgeSelector, round.Transmitters)
					got := append([]Delivery(nil), round.Deliveries...)
					SortDeliveries(want)
					SortDeliveries(got)
					if len(got) != len(want) {
						t.Fatalf("%s p=%v seed %d round %d: %d deliveries, reference %d\n engine: %v\n ref:    %v",
							tc.name, p, seed, round.Round, len(got), len(want), got, want)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s p=%v seed %d round %d: delivery %d = %v, reference %v",
								tc.name, p, seed, round.Round, j, got[j], want[j])
						}
					}
				}
				for _, q := range log {
					if txOf[q.round][q.rx] {
						t.Fatalf("%s p=%v seed %d round %d: asked about %d→%d, but listener %d transmits",
							tc.name, p, seed, q.round, q.tx, q.rx, q.rx)
					}
				}
				if len(log) >= naive {
					t.Fatalf("%s p=%v seed %d: %d queries, not below the naive %d", tc.name, p, seed, len(log), naive)
				}
				t.Logf("%s p=%v seed %d: %d of %d queries asked", tc.name, p, seed, len(log), naive)
			}
		}
	}
}
