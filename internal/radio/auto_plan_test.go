package radio

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// TestAutoPlanResolution pins the plan every gate of setupPlan resolves to:
// the node floor, the clique-cover and recorder exclusions, and the density
// gate, which applies at every n. A bitmap verdict under PlanAuto keeps the
// per-round fallback threshold at the bitmap width in words; a forced plan
// pins it to 0. The 40 000-node ring+chords case is named for the 2¹⁵-node
// cap the density gate no longer has: it stays on the CSR walk, and forcing
// the bitmap still builds its rows.
func TestAutoPlanResolution(t *testing.T) {
	src := bitrand.New(0xa070)
	// The quick SCALE-n substrate at n = 10⁴ (internal/experiments/scale.go).
	scaleCirculant := graph.AugmentDual(bitrand.New(0x5ca1e04), graph.Circulant(10000, 512), 20000)
	ringChords := graph.UniformDual(graph.RingChords(src, 40000, 80000))

	cases := []struct {
		name string
		cfg  Config
		want DeliveryPlan
	}{
		{"below-node-floor", Config{Net: graph.UniformDual(graph.Circulant(2000, 512))}, PlanScalar},
		{"clique-cover", Config{Net: scaleCirculant, UseCliqueCover: true}, PlanScalar},
		{"recorder", Config{Net: scaleCirculant, Recorder: &MemRecorder{}}, PlanScalar},
		{"scale-circulant", Config{Net: scaleCirculant}, PlanBitmap},
		// Circulant(4096, 64) has exactly 4096²/128 edges; two fewer
		// neighbors per node fall short.
		{"density-gate-met", Config{Net: graph.UniformDual(graph.Circulant(4096, 64))}, PlanBitmap},
		{"density-gate-missed", Config{Net: graph.UniformDual(graph.Circulant(4096, 62))}, PlanScalar},
		{"ring-chords-below-density-gate", Config{Net: graph.UniformDual(graph.RingChords(src, 10000, 20000))}, PlanScalar},
		{"ring-chords-above-density-cap", Config{Net: ringChords}, PlanScalar},
		{"forced-bitmap-ring-chords", Config{Net: ringChords, Plan: PlanBitmap}, PlanBitmap},
		{"forced-bitmap-small", Config{Net: graph.UniformDual(graph.Ring(64)), Plan: PlanBitmap}, PlanBitmap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Algorithm = batchAlg{p: 0.5}
			cfg.Spec = Spec{Problem: GlobalBroadcast, Source: 0}
			cfg.MaxRounds = 1
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.release()
			if e.plan != tc.want {
				t.Errorf("resolved %v, want %v", e.plan, tc.want)
			}
			wantTxMin := 0
			if cfg.Plan == PlanAuto && tc.want == PlanBitmap {
				wantTxMin = bitrand.WordsFor(cfg.Net.N())
			}
			if e.bitmapTxMin != wantTxMin {
				t.Errorf("bitmapTxMin = %d, want %d", e.bitmapTxMin, wantTxMin)
			}
		})
	}
}
