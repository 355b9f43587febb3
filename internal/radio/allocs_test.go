package radio_test

import (
	"testing"

	"repro/internal/core"
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
