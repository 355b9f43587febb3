package adversary

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/scenario"
)

// TestChurnWindowAllocs is the //dglint:noalloc gate for the epoch-aware
// adversaries' per-round choice methods (ChurnWindow.ChooseOnline,
// ChurnWindowOffline.ChooseOffline): a warmed-up adaptive trial over a
// precompiled storm schedule must stay within the BENCH_pr5 budget of
// 5 allocs — engine 3, Env, adversary rng split. The choice methods run
// once per round, so one allocation inside either blows the budget by
// ~MaxRounds.
func TestChurnWindowAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs steady-state pooling")
	}
	if raceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	const n = 64
	base := graph.TwoCliques(n)
	sc, err := scenario.Generate(base, bitrand.New(3000+n), scenario.GenConfig{
		Epochs:    10,
		EpochLen:  2 * bitrand.LogN(n),
		Demotions: 8,
		Storms:    6 * n,
		Protected: []graph.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	wins := sc.DegradedWindows()

	const budget = 5
	seed := uint64(0)
	measure := func(name string, link any) {
		trial := func() {
			seed++
			_, err := radio.Run(radio.Config{
				Algorithm:        core.DecayGlobal{},
				Spec:             radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
				Link:             link,
				Seed:             seed,
				MaxRounds:        256,
				IgnoreCompletion: true,
				Epochs:           epochs,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(50, trial)
		t.Logf("%s trial allocs/op = %v (budget %d)", name, got, budget)
		if got > budget {
			t.Errorf("%s trial allocs/op = %v, budget %d", name, got, budget)
		}
	}
	measure("online", ChurnWindow{Windows: wins, C: 1})
	measure("offline", ChurnWindowOffline{Windows: wins})
}
