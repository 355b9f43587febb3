package radio_test

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// bitmapTrialBudget is the bitmap plan's whole-trial allocation budget, the
// same as the scalar path's (TestHotPathAllocs): engine, Result slices,
// process-arena miss paths. The rounds themselves must contribute zero.
const bitmapTrialBudget = 6

// bitmapTrial returns one forced-bitmap decay trial on net, a fresh seed per
// call. Forcing the plan pins bitmapTxMin to 0, so every round stays on the
// kernel; the per-graph mask rows are built by AllocsPerRun's untimed
// warm-up run, so any per-round allocation in the bulk coin loop, the
// transmitter fill, or the kernel blows the budget by ~MaxRounds and fails
// loudly.
func bitmapTrial(t *testing.T, net *graph.Dual) func() {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation gate needs steady-state pooling")
	}
	seed := uint64(0)
	return func() {
		seed++
		_, err := radio.Run(radio.Config{
			Net:              net,
			Algorithm:        core.DecayGlobal{},
			Spec:             radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
			Seed:             seed,
			MaxRounds:        256,
			Plan:             radio.PlanBitmap,
			IgnoreCompletion: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func checkBitmapBudget(t *testing.T, got float64) {
	t.Helper()
	t.Logf("bitmap trial allocs/op = %v (budget %d)", got, bitmapTrialBudget)
	if got > bitmapTrialBudget {
		t.Errorf("bitmap trial allocs/op = %v, budget %d", got, bitmapTrialBudget)
	}
}

// TestBitmapDeliveryAllocs is the //dglint:noalloc gate for the transmitter
// fill (fillTxSparse) on a dense circulant, where every row holds many
// blocks and the region summaries rarely prune.
func TestBitmapDeliveryAllocs(t *testing.T) {
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	net := graph.UniformDual(graph.Circulant(512, 64))
	checkBitmapBudget(t, testing.AllocsPerRun(100, bitmapTrial(t, net)))
}

// TestSparseDeliveryAllocs is the //dglint:noalloc gate for the delivery
// kernel (deliverSparse) on a ring-with-chords network, where the region
// summaries reject most listeners.
func TestSparseDeliveryAllocs(t *testing.T) {
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	net := graph.UniformDual(graph.RingChords(bitrand.New(0x59a5), 4096, 8192))
	checkBitmapBudget(t, testing.AllocsPerRun(100, bitmapTrial(t, net)))
}
