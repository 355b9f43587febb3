package radio

import (
	"slices"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// TestPushPlanesClearEveryRound steps forced-bitmap executions round by
// round and requires the push kernel's three bit-planes to be all zero
// after every round, so a round never sees the last one's bits and a pooled
// scratch never carries a set bit into the next trial. The configurations
// cover G rows, G' rows, a committed set's rows and a cross-cut's rows
// across an epoch swap, the adaptive walk between kernel rounds, the
// silence pass (bulk stepping hidden) and the recorder's sort, and both
// ways of clearing: row by row after a round of few blocks, whole planes
// after one of many.
func TestPushPlanesClearEveryRound(t *testing.T) {
	var src bitrand.Source
	src.Reseed(0x91a7e)
	d0 := graph.AugmentDual(&src, graph.Circulant(300, 24), 900)
	d1 := graph.AugmentDual(&src, graph.RingChords(&src, 300, 600), 700)
	// Wide enough (64 words) that a round of a few transmitters pushes
	// fewer blocks than a plane has words, so the kernel clears row by row.
	wide := graph.AugmentDual(&src, graph.Circulant(4096, 64), 3000)
	half := func(d *graph.Dual) []graph.EdgeKey {
		var edges []graph.EdgeKey
		for u := 0; u < d.N(); u++ {
			for _, v := range d.ExtraNeighbors(u) {
				if u < v && (u+v)%2 == 0 {
					edges = append(edges, graph.EdgeKey{U: u, V: v})
				}
			}
		}
		return edges
	}
	set := StaticSchedule{Selector: graph.NewSelectSet(append(half(d0), half(d1)...))}
	epochs := []Epoch{{Start: 0, Net: d0}, {Start: 20, Net: d1}, {Start: 45, Net: d0}}
	local := Spec{Problem: LocalBroadcast, Broadcasters: []graph.NodeID{0, 100, 200}}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"no-link", Config{Net: d0, Algorithm: batchAlg{p: 0.1}}},
		{"few-transmitters", Config{Net: wide, Algorithm: batchAlg{p: 0.02}, Link: scheduleLink{set}}},
		{"static-all", Config{Net: d0, Algorithm: batchAlg{p: 0.1}, Link: staticAllLink{}}},
		{"static-set-epochs", Config{Epochs: epochs, Algorithm: batchAlg{p: 0.1}, Link: scheduleLink{set}}},
		{"static-cut-epochs", Config{Epochs: epochs, Algorithm: hideBulk{batchAlg{p: 0.1}}, Link: staticPartialLink{}}},
		{"online-flicker", Config{Net: d1, Algorithm: hideBulk{batchAlg{p: 0.1}}, Link: flickerOnline{}}},
		{"recorded-set", Config{Net: d0, Algorithm: batchAlg{p: 0.3}, Link: scheduleLink{set}, Recorder: &MemRecorder{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Spec, cfg.Plan, cfg.MaxRounds = local, PlanBitmap, 80
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.release()
			var res Result
			for r := 0; r < cfg.MaxRounds; r++ {
				if e.epochIdx+1 < len(e.epochs) && e.epochs[e.epochIdx+1].Start == r {
					e.swapEpoch()
				}
				e.step(r, &res)
				for name, plane := range map[string][]uint64{"transmitters": e.txWords, "heard once": e.heardOnce, "heard twice": e.heardTwice} {
					if i := slices.IndexFunc(plane, func(w uint64) bool { return w != 0 }); i >= 0 {
						t.Fatalf("round %d: %s plane word %d = %#x after the round", r, name, i, plane[i])
					}
				}
			}
			if res.Deliveries == 0 {
				t.Fatal("no deliveries: the kernel rounds are vacuous")
			}
		})
	}
}

// scheduleLink commits a fixed schedule.
type scheduleLink struct{ s Schedule }

func (l scheduleLink) CommitSchedule(*Env) Schedule { return l.s }

// flickerOnline rotates an online adaptive choice through all, none and a
// partial cross-cut, so walk rounds sit between kernel rounds.
type flickerOnline struct{}

func (flickerOnline) ChooseOnline(_ *Env, view *View) graph.EdgeSelector {
	switch view.Round % 3 {
	case 0:
		return graph.SelectAll{}
	case 1:
		return graph.SelectNone{}
	}
	return graph.SelectCrossCut{InA: func(u graph.NodeID) bool { return u%3 == 0 }}
}
