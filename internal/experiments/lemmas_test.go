package experiments

import (
	"math"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
)

// refLemma42Call is the slot-by-slot loop lemma42Call replaced: the ig
// reliable coins, then each unreliable slot's presence and, when present,
// its coin, in slot order.
func refLemma42Call(src *bitrand.Source, sched *core.PermSchedule, trial, ig, igp int, presence float64) bool {
	got := false
	for r := 0; r < sched.BlockLen() && !got; r++ {
		p := sched.Prob(r)
		tx := 0
		for s := 0; s < ig; s++ {
			if src.Coin(p) {
				tx++
			}
		}
		pre := bitrand.HashPrefix(uint64(trial), uint64(r))
		for s := 0; s < igp; s++ {
			present := bitrand.UnitFloat(bitrand.HashFrom(pre, uint64(s))) < presence
			if present && src.Coin(p) {
				tx++
			}
		}
		if tx == 1 {
			got = true
		}
	}
	return got
}

// TestLemma42CallMatchesSlotLoop requires the count-then-draw loop to give
// the slot-by-slot loop's outcome and leave its stream at the same consumed
// count, trial by trial, for L4.2's five shapes and for presences at and
// beside the edges: 0, 1, ½ and one ulp either side, 0.9, random values, and
// values that equal a slot's hash float exactly, where a slot is absent by
// one ulp. A sixth shape with no reliable sender makes calls that hear
// nothing.
func TestLemma42CallMatchesSlotLoop(t *testing.T) {
	const n = 1024
	presences := []float64{0, 1, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.9,
		math.Nextafter(1, 0), math.SmallestNonzeroFloat64, -1, 2}
	pick := bitrand.New(7)
	for i := 0; i < 6; i++ {
		presences = append(presences, pick.Float64())
	}
	shapes := []struct{ ig, igp int }{{1, 0}, {8, 0}, {1, 64}, {4, 256}, {2, 512}, {0, 64}}
	root := bitrand.New(4242)
	outcomes := [2]int{}
	for si, shape := range shapes {
		for trial := 0; trial < 12; trial++ {
			ps := []float64{0} // with no slot, presence reaches nothing
			if shape.igp > 0 {
				ps = append(ps[:0], presences...)
				for _, rs := range [][2]uint64{{0, 0}, {1, 3}, {2, 5}} {
					ps = append(ps, bitrand.UnitFloat(bitrand.HashFrom(bitrand.HashPrefix(uint64(trial), rs[0]), rs[1])))
				}
			}
			for pi, presence := range ps {
				var got [2]bool
				var consumed [2]uint64
				for k, call := range []func(*bitrand.Source, *core.PermSchedule, int, int, int, float64) bool{lemma42Call, refLemma42Call} {
					src := root.Split(uint64(si), uint64(pi), uint64(trial))
					sched := core.NewPermSchedule(bitrand.NewBitString(src, core.GlobalBitsLen(n, 1)), n, 1)
					got[k] = call(src, sched, trial, shape.ig, shape.igp, presence)
					consumed[k] = src.Consumed()
				}
				if got[0] != got[1] || consumed[0] != consumed[1] {
					t.Fatalf("shape %+v, presence %v, trial %d: got %v after %d bits, slot loop %v after %d",
						shape, presence, trial, got[0], consumed[0], got[1], consumed[1])
				}
				outcomes[boolIndex(got[0])]++
			}
		}
	}
	if outcomes[0] == 0 || outcomes[1] == 0 {
		t.Fatalf("outcomes %v: both must occur for the check to mean anything", outcomes)
	}
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}
