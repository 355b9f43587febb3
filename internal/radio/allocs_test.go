package radio_test

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TestHotPathAllocs is the //dglint:noalloc gate for the engine's hot paths
// (step, deliver, swapEpoch): a warmed-up static trial must stay within the
// BENCH_pr2 allocation budget. The budget counts whole-trial allocations —
// the engine struct and Result bookkeeping — so any per-round allocation
// sneaking into the step/deliver loop blows it by ~MaxRounds and fails
// loudly, not marginally. AllocsPerRun's own warm-up call fills the scratch
// pool, so the measured runs see steady-state pooling, exactly like a sweep.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs steady-state pooling")
	}
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	dc, _ := graph.DualClique(128, 3)
	spec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}

	seed := uint64(0)
	trial := func() {
		seed++
		_, err := radio.Run(radio.Config{
			Net:              dc,
			Algorithm:        core.DecayGlobal{},
			Spec:             spec,
			Seed:             seed,
			MaxRounds:        256,
			IgnoreCompletion: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// BENCH_pr2: a pooled static trial costs at most 6 allocs (engine,
	// Result slices, process-arena miss paths). 256 rounds of step/deliver
	// must contribute zero.
	const staticBudget = 6
	got := testing.AllocsPerRun(100, trial)
	t.Logf("static trial allocs/op = %v (budget %d)", got, staticBudget)
	if got > staticBudget {
		t.Errorf("static trial allocs/op = %v, budget %d", got, staticBudget)
	}
}

// TestSharedScheduleAllocs extends the hot-path gate to the algorithms that
// read shared bit strings: permuted global (the schedule's round memo), TDM
// gossip (the same memo, per rumor) and geo-local (the slab's stage clock).
// Each warmed-up trial runs 256 rounds (geo-local's last 124 in the broadcast
// stage). The budgets are the per-trial counts measured before the memo and
// the clock existed — 3, 5 and 11: the engine, Result slices, and geo-local's
// per-trial seed and broadcast frames — plus the slack of 3 TestHotPathAllocs
// allows, so state that allocated once per round would blow them by ~256.
func TestSharedScheduleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs steady-state pooling")
	}
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	dc, _ := graph.DualClique(128, 3)
	geo := graph.GeographicGrid(bitrand.New(5), 4, 4, 0.7, 1.5)
	var broadcasters []graph.NodeID
	for u := 0; u < geo.N(); u += 3 {
		broadcasters = append(broadcasters, u)
	}
	for _, tc := range []struct {
		name   string
		alg    radio.Algorithm
		net    *graph.Dual
		spec   radio.Spec
		budget float64
	}{
		{"permuted-global", core.PermutedGlobal{}, dc, radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}, 6},
		{"gossip-tdm", gossip.TDM{}, dc, radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{0, 40, 90}}, 8},
		{"geo-local", core.GeoLocal{}, geo, radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: broadcasters}, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(0)
			trial := func() {
				seed++
				_, err := radio.Run(radio.Config{
					Net:              tc.net,
					Algorithm:        tc.alg,
					Spec:             tc.spec,
					Seed:             seed,
					MaxRounds:        256,
					IgnoreCompletion: true,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(100, trial)
			t.Logf("%s trial allocs/op = %v (budget %v)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s trial allocs/op = %v, budget %v", tc.name, got, tc.budget)
			}
		})
	}
}
