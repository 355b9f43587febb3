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

// bitmapTrial returns one forced-bitmap decay trial on net under link, a
// fresh seed per call. Every round with rows runs the push kernel; the
// per-graph mask rows and the scratch's static-selector rows are built by
// AllocsPerRun's untimed warm-up run, so any per-round allocation in the
// bulk coin loop or the kernel, or a static-row rebuild that does not reuse
// its storage, blows the budget by ~MaxRounds and fails loudly.
func bitmapTrial(t *testing.T, net *graph.Dual, link any) func() {
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
			Link:             link,
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

// checkBitmapBudget checks one trial shape's allocations against the
// budget. A linked trial may allocate its link's set-up on top: the
// adversary Env and its stream, and the committed schedule, all once per
// trial.
func checkBitmapBudget(t *testing.T, name string, got float64, linkAllocs int) {
	t.Helper()
	budget := bitmapTrialBudget + linkAllocs
	t.Logf("%s: bitmap trial allocs/op = %v (budget %d)", name, got, budget)
	if got > float64(budget) {
		t.Errorf("%s: bitmap trial allocs/op = %v, budget %d", name, got, budget)
	}
}

// staticLinkAllocs bounds a committed static link's per-trial set-up: the
// Env, its adversary stream, and the schedule boxed into its interface.
const staticLinkAllocs = 3

// TestBitmapDeliveryAllocs is the //dglint:noalloc gate for the push kernel
// (deliverPush) on a dense circulant, where every row holds many blocks:
// with no link, and under a committed cross-cut, whose rows are rebuilt in
// the scratch's storage at every trial (a selector holding a func is never
// compared, so its rows are never reused).
func TestBitmapDeliveryAllocs(t *testing.T) {
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	net := graph.AugmentDual(bitrand.New(0xa11c), graph.Circulant(512, 64), 1500)
	checkBitmapBudget(t, "no-link", testing.AllocsPerRun(100, bitmapTrial(t, net, nil)), 0)
	cut := fixedLink{graph.SelectCrossCut{InA: func(u graph.NodeID) bool { return u%3 == 0 }}}
	checkBitmapBudget(t, "static-cross-cut", testing.AllocsPerRun(100, bitmapTrial(t, net, cut)), staticLinkAllocs)
}

// TestSparseDeliveryAllocs is the //dglint:noalloc gate for the push kernel
// (deliverPush) on a ring-with-chords network, where a row holds a few
// blocks: with no link, and under a committed half-fringe set, whose rows
// the scratch builds once and keeps for every later trial.
func TestSparseDeliveryAllocs(t *testing.T) {
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime drops sync.Pool items on purpose")
	}
	net := graph.AugmentDual(bitrand.New(0x59a5), graph.RingChords(bitrand.New(0x59a6), 4096, 8192), 4096)
	checkBitmapBudget(t, "no-link", testing.AllocsPerRun(100, bitmapTrial(t, net, nil)), 0)
	set := fixedLink{graph.NewSelectSet(halfExtraEdges(net))}
	checkBitmapBudget(t, "static-set", testing.AllocsPerRun(100, bitmapTrial(t, net, set)), staticLinkAllocs)
}
