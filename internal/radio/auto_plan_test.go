package radio

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// lossLink commits RandomLoss's shape of schedule: a fresh partial
// selector every round, which no row set can serve.
type lossLink struct{}

func (lossLink) CommitSchedule(*Env) Schedule {
	return ScheduleFunc(func(r int) graph.EdgeSelector {
		return graph.SelectFunc{F: func(u, v graph.NodeID) bool { return (u+v+r)%2 == 0 }}
	})
}

// TestAutoPlanResolution pins the plan every gate of setupPlan resolves to:
// the node floor, the clique-cover and recorder exclusions, and the density
// gate, which applies at every n. The 40 000-node ring+chords case is named
// for the 2¹⁵-node cap the density gate no longer has: it stays on the CSR
// walk, and forcing the bitmap still builds its rows. A committed static
// partial selector on the circulant gets rows of its own; a schedule that
// changes its partial selector every round, or the scalar plan, does not.
func TestAutoPlanResolution(t *testing.T) {
	src := bitrand.New(0xa070)
	// The quick SCALE-n substrate at n = 10⁴ (internal/experiments/scale.go).
	scaleCirculant := graph.AugmentDual(bitrand.New(0x5ca1e04), graph.Circulant(10000, 512), 20000)
	ringChords := graph.UniformDual(graph.RingChords(src, 40000, 80000))

	cases := []struct {
		name string
		cfg  Config
		want DeliveryPlan
		// selRows: the epoch has rows for a committed partial selector.
		selRows bool
	}{
		{"below-node-floor", Config{Net: graph.UniformDual(graph.Circulant(2000, 512))}, PlanScalar, false},
		{"clique-cover", Config{Net: scaleCirculant, UseCliqueCover: true}, PlanScalar, false},
		{"recorder", Config{Net: scaleCirculant, Recorder: &MemRecorder{}}, PlanScalar, false},
		{"scale-circulant", Config{Net: scaleCirculant}, PlanBitmap, false},
		// Circulant(4096, 64) has exactly 4096²/128 edges; two fewer
		// neighbors per node fall short.
		{"density-gate-met", Config{Net: graph.UniformDual(graph.Circulant(4096, 64))}, PlanBitmap, false},
		{"density-gate-missed", Config{Net: graph.UniformDual(graph.Circulant(4096, 62))}, PlanScalar, false},
		{"ring-chords-below-density-gate", Config{Net: graph.UniformDual(graph.RingChords(src, 10000, 20000))}, PlanScalar, false},
		{"ring-chords-above-density-cap", Config{Net: ringChords}, PlanScalar, false},
		{"forced-bitmap-ring-chords", Config{Net: ringChords, Plan: PlanBitmap}, PlanBitmap, false},
		{"forced-bitmap-small", Config{Net: graph.UniformDual(graph.Ring(64)), Plan: PlanBitmap}, PlanBitmap, false},
		{"static-partial-rows", Config{Net: scaleCirculant, Link: staticPartialLink{}}, PlanBitmap, true},
		{"random-loss-no-rows", Config{Net: scaleCirculant, Link: lossLink{}}, PlanBitmap, false},
		{"static-partial-scalar", Config{Net: scaleCirculant, Link: staticPartialLink{}, Plan: PlanScalar}, PlanScalar, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Algorithm = batchAlg{p: 0.5}
			cfg.Spec = Spec{Problem: GlobalBroadcast, Source: 0}
			cfg.MaxRounds = 1
			x, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			e := &x.engine
			if e.plan != tc.want {
				t.Errorf("resolved %v, want %v", e.plan, tc.want)
			}
			if got := e.sparseSel != nil; got != tc.selRows {
				t.Errorf("selector rows built = %v, want %v", got, tc.selRows)
			}
		})
	}
}
