package radio_test

import (
	"reflect"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// The push kernel's second pass serves a round's heard-once listeners from
// one of two sides (see deliverPush), or skips when there are none.
const (
	sideNone = iota
	sideListeners
	sideTransmitters
)

var sideNames = [...]string{"no candidate", "listener side", "transmitter side"}

// pushServeSide recomputes the second pass's side for a round whose
// transmitters tx reached heard listeners exactly once, on rows m of an
// n-node round topology: past one pushed block per plane word, no heard-once
// listener means no serve, and the listeners' own rows serve when heard
// average rows cost less than the pushed blocks; every other round serves
// from the transmitters' rows.
func pushServeSide(m *graph.SparseNeighborMasks, n int, tx []graph.NodeID, heard int) int {
	offs, _, _ := m.Rows()
	pushed := 0
	for _, v := range tx {
		pushed += int(offs[v+1] - offs[v])
	}
	switch {
	case pushed <= bitrand.WordsFor(n):
		return sideTransmitters
	case heard == 0:
		return sideNone
	case int64(heard)*int64(m.Entries()) < int64(pushed)*int64(n):
		return sideListeners
	}
	return sideTransmitters
}

// TestPushServeSides runs forced-bitmap decay trials on a small dense
// circulant, on the rows of G (no link), of G plus a committed half-fringe
// SelectSet, and of G′ (SelectAll), with a recorder attached. Every trial
// must equal the scalar walk's (comparePlans), and every recorded round's
// deliveries must be ReferenceDeliveries'. Each round's second-pass side is
// recomputed from its transmitters and the rows, and each link must see all
// three outcomes, so the listener-side serve is checked as often as the
// transmitter side.
func TestPushServeSides(t *testing.T) {
	const n = 512
	d := denseDual(t, n, 64, 1500, 0x5e7e5)
	set := graph.NewSelectSet(halfExtraEdges(d))
	var setRows graph.SparseNeighborMasks
	setRows.BuildSelected(d, set)
	cases := []struct {
		name string
		link any
		rows *graph.SparseNeighborMasks
	}{
		{"no-link", nil, graph.SparseMasksOf(d.G())},
		{"static-set", fixedLink{set}, &setRows},
		{"static-all", fixedLink{graph.SelectAll{}}, graph.SparseMasksOf(d.GPrime())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sides [3]int
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := radio.Config{
					Net: d, Algorithm: core.DecayGlobal{}, Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Link: tc.link, Seed: seed, MaxRounds: 400,
				}
				comparePlans(t, cfg)
				_, rec := runPlan(t, cfg, radio.PlanBitmap)
				for _, rr := range rec.Rounds {
					want := radio.ReferenceDeliveries(d, rr.Selector, rr.Transmitters)
					if len(want) == 0 {
						want = nil
					}
					got := rr.Deliveries
					if len(got) == 0 {
						got = nil
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, round %d: deliveries\n %v\nreference\n %v", seed, rr.Round, got, want)
					}
					sides[pushServeSide(tc.rows, n, rr.Transmitters, len(rr.Deliveries))]++
				}
			}
			t.Logf("rounds by side: %d %s, %d %s, %d %s", sides[0], sideNames[0], sides[1], sideNames[1], sides[2], sideNames[2])
			for side, k := range sides {
				if k == 0 {
					t.Errorf("no round took the %s", sideNames[side])
				}
			}
		})
	}
}
