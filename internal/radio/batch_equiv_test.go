package radio

import (
	"reflect"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// The recorder-free production path must be bit-for-bit identical to Step
// dispatch. With every process a BulkStepper, under every plan, the engine
// draws the round's coins itself in one ascending pass over the per-node
// streams and hands out messages only; hiding BulkStepper (hideBulk) puts
// the execution back on per-node Step calls with silence handed out. These
// tests run identical configurations under PlanScalar, PlanAuto and
// PlanBitmap with no recorder attached — a recorder pins PlanAuto to the
// scalar walk, so the differential harness in bitmap_equiv_test.go never
// reaches PlanAuto's bitmap epochs — each as is, with dormancy hidden
// (hideDormancy, which hides BulkStepper too) and with BulkStepper hidden,
// and require identical Results.
//
// The probe algorithm is defined here rather than borrowed from
// internal/core (which imports this package): informed nodes flood with a
// fixed probability, the exact BulkStepper shape — Step is one Bernoulli
// trial, Frame the held rumor — and uninformed nodes are Dormant.

type batchProc struct {
	p   float64
	msg *Message
}

func (pr *batchProc) TransmitProb(int) float64 {
	if pr.msg == nil {
		return 0
	}
	return pr.p
}

func (pr *batchProc) Frame(int) *Message { return pr.msg }

func (pr *batchProc) Step(r int, rng *bitrand.Source) Action {
	if rng.Coin(pr.TransmitProb(r)) {
		return Transmit(pr.Frame(r))
	}
	return Listen()
}

func (pr *batchProc) Deliver(_ int, msg *Message) {
	if msg != nil && pr.msg == nil {
		pr.msg = msg
	}
}

func (pr *batchProc) Dormant() bool { return pr.msg == nil }

type batchAlg struct{ p float64 }

func (batchAlg) Name() string { return "batch-flood" }

func (a batchAlg) NewProcesses(net *graph.Dual, spec Spec, _ *bitrand.Source) []Process {
	procs := make([]Process, net.N())
	for u := range procs {
		procs[u] = &batchProc{p: a.p}
	}
	informed := spec.Broadcasters
	if spec.Problem == GlobalBroadcast {
		informed = []graph.NodeID{spec.Source}
	}
	for _, u := range informed {
		procs[u].(*batchProc).msg = &Message{Origin: u}
	}
	return procs
}

// staticAllLink commits the all-edges schedule, lighting up the G' mask
// rows.
type staticAllLink struct{}

func (staticAllLink) CommitSchedule(*Env) Schedule {
	return StaticSchedule{Selector: graph.SelectAll{}}
}

// staticPartialLink commits a fixed partial selector, which has no
// precomputed mask rows: bitmap-plan rounds under it take the scalar walk
// with the bulk-drawn transmitter list.
type staticPartialLink struct{}

func (staticPartialLink) CommitSchedule(*Env) Schedule {
	return StaticSchedule{Selector: graph.SelectCrossCut{
		InA: func(u graph.NodeID) bool { return u%2 == 0 },
	}}
}

func TestBatchCoinEquivalence(t *testing.T) {
	var src bitrand.Source
	src.Reseed(0xba7c4)
	// The circulant clears PlanAuto's density gate, so PlanAuto resolves to
	// the bitmap plan there; the ring+chords network does not, so PlanAuto
	// resolves to the CSR walk there and only PlanBitmap takes its rows.
	denseNet := graph.UniformDual(graph.Circulant(2500, 320))
	sparseLinked := graph.AugmentDual(&src, graph.RingChords(&src, 40000, 80000), 40000)

	cases := []struct {
		name string
		cfg  Config
	}{
		// A flood keeps most rounds above PlanAuto's bitmapTxMin, so both
		// bitmap plans run them through the kernel.
		{"dense-flood", Config{
			Net: denseNet, Algorithm: batchAlg{p: 0.4},
			Spec: Spec{Problem: LocalBroadcast, Broadcasters: []graph.NodeID{1, 700, 1900}},
			Seed: 41, MaxRounds: 96, IgnoreCompletion: true,
		}},
		// A trickle's early rounds fall under PlanAuto's bitmapTxMin =
		// WordsFor(n) and take the scalar walk; later rounds clear it and
		// take the kernel.
		{"dense-auto-trickle", Config{
			Net: denseNet, Algorithm: batchAlg{p: 0.02},
			Spec: Spec{Problem: GlobalBroadcast, Source: 7},
			Seed: 42, MaxRounds: 256,
		}},
		{"sparse-flood", Config{
			Net: sparseLinked, Algorithm: batchAlg{p: 0.5},
			Spec: Spec{Problem: GlobalBroadcast, Source: 11},
			Seed: 43, MaxRounds: 40,
		}},
		{"sparse-flood-linked", Config{
			Net: sparseLinked, Algorithm: batchAlg{p: 0.35},
			Spec: Spec{Problem: LocalBroadcast, Broadcasters: []graph.NodeID{0, 500, 1500}},
			Link: staticAllLink{},
			Seed: 44, MaxRounds: 40, IgnoreCompletion: true,
		}},
		// A committed partial selector has no mask rows: every round takes
		// the scalar walk over the bulk-drawn transmitter list.
		{"sparse-static-partial", Config{
			Net: sparseLinked, Algorithm: batchAlg{p: 0.3},
			Spec: Spec{Problem: LocalBroadcast, Broadcasters: []graph.NodeID{0, 500, 1500}},
			Link: staticPartialLink{},
			Seed: 45, MaxRounds: 40, IgnoreCompletion: true,
		}},
	}
	wrappers := []struct {
		name string
		wrap func(Algorithm) Algorithm
	}{
		{"as is", func(a Algorithm) Algorithm { return a }},
		{"dormancy hidden", func(a Algorithm) Algorithm { return hideDormancy{a} }},
		{"bulk hidden", func(a Algorithm) Algorithm { return hideBulk{a} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want Result
			for i, plan := range []DeliveryPlan{PlanScalar, PlanAuto, PlanBitmap} {
				for j, w := range wrappers {
					cfg := tc.cfg
					cfg.Plan = plan
					cfg.Algorithm = w.wrap(cfg.Algorithm)
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%v (%s): %v", plan, w.name, err)
					}
					if i == 0 && j == 0 {
						want = res
					} else if !reflect.DeepEqual(res, want) {
						t.Errorf("%v (%s) result differs from PlanScalar (rounds %d vs %d, transmissions %d vs %d, deliveries %d vs %d)",
							plan, w.name, res.Rounds, want.Rounds, res.Transmissions, want.Transmissions, res.Deliveries, want.Deliveries)
					}
				}
			}
		})
	}
}
