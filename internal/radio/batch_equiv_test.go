package radio

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// The recorder-free production path must be bit-for-bit identical to Step
// dispatch. With every process a BulkStepper, under every plan, the engine
// draws the round's coins itself in one ascending pass over the per-node
// streams and hands out messages only; with every awake node a member of
// one cohort it also reads the round's probability once. Hiding
// CohortMember (hideCohort) puts the execution on the per-node bulk loop,
// and hiding BulkStepper (hideBulk) on per-node Step calls with silence
// handed out. These tests run identical configurations under PlanScalar,
// PlanAuto and PlanBitmap with no recorder attached — a recorder pins
// PlanAuto to the scalar walk, so the differential harness in
// bitmap_equiv_test.go never reaches PlanAuto's bitmap epochs — each as
// is, with dormancy hidden (hideDormancy, which hides BulkStepper too),
// with the cohort hidden and with BulkStepper hidden, and require identical
// Results.
//
// The probe algorithm is defined here rather than borrowed from
// internal/core (which imports this package): informed nodes flood with a
// fixed probability, the exact BulkStepper shape — Step is one Bernoulli
// trial, Frame the held rumor — and uninformed nodes are Dormant. The
// probability is the slab's cohort, so every informed node is a member.

type batchProc struct {
	p   float64
	msg *Message
	// cohort is the slab's shared schedule, the constant p.
	cohort *batchCohort
}

// batchCohort is a batchAlg slab's constant probability.
type batchCohort struct{ p float64 }

func (c *batchCohort) RoundProb(int) float64 { return c.p }

func (pr *batchProc) Cohort() (Cohort, int) { return pr.cohort, 0 }

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
	c := &batchCohort{p: a.p}
	for u := range procs {
		procs[u] = &batchProc{p: a.p, cohort: c}
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

// staticPartialLink commits a fixed partial selector: on a bitmap epoch the
// engine builds rows for G plus the selected edges, and the push kernel
// serves every round from the bulk-drawn transmitter list.
type staticPartialLink struct{}

func (staticPartialLink) CommitSchedule(*Env) Schedule {
	return StaticSchedule{Selector: graph.SelectCrossCut{
		InA: func(u graph.NodeID) bool { return u%2 == 0 },
	}}
}

// splitCohortAlg is a batchAlg whose node at is dormant at the start and no
// member of the slab's cohort: with other set it names a cohort of its own
// at the same probability, otherwise it is no member at all. Either way the
// cohort is off from the round after it wakes.
type splitCohortAlg struct {
	batchAlg
	at    graph.NodeID
	other bool
}

func (a splitCohortAlg) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	procs := a.batchAlg.NewProcesses(net, spec, rng)
	if a.other {
		procs[a.at].(*batchProc).cohort = &batchCohort{p: a.p}
	} else {
		procs[a.at] = noCohort{procs[a.at].(*batchProc)}
	}
	return procs
}

// cohortOff runs cfg to its end and reports whether the cohort was off when
// it ended, and whether it was ever on.
func cohortOff(t *testing.T, cfg Config) (off, wasOn bool) {
	t.Helper()
	x, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	e := &x.engine
	var res Result
	for r := 0; r < cfg.MaxRounds && !e.mon.done(); r++ {
		wasOn = wasOn || e.cohort != nil
		e.step(r, &res)
	}
	return e.cohortOff, wasOn
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
		// A flood: every informed node transmits at p = 0.4, and both
		// bitmap plans run every round through the push kernel.
		{"dense-flood", Config{
			Net: denseNet, Algorithm: batchAlg{p: 0.4},
			Spec: Spec{Problem: LocalBroadcast, Broadcasters: []graph.NodeID{1, 700, 1900}},
			Seed: 41, MaxRounds: 96, IgnoreCompletion: true,
		}},
		// A trickle: the early rounds have a handful of transmitters, which
		// the push kernel serves at the cost of their rows alone.
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
		// A committed partial selector: the bitmap plan builds the rows of
		// G plus the selected edges, and every round takes the push kernel
		// over the bulk-drawn transmitter list.
		{"sparse-static-partial", Config{
			Net: sparseLinked, Algorithm: batchAlg{p: 0.3},
			Spec: Spec{Problem: LocalBroadcast, Broadcasters: []graph.NodeID{0, 500, 1500}},
			Link: staticPartialLink{},
			Seed: 45, MaxRounds: 40, IgnoreCompletion: true,
		}},
		// The cohort switches off mid-run: a node that is not a member, and
		// in the second case a member of another cohort at the same
		// probability, wakes some rounds in, and every later round runs the
		// per-node loop.
		{"dense-nonmember-wakes", Config{
			Net: denseNet, Algorithm: splitCohortAlg{batchAlg{p: 0.02}, 1800, false},
			Spec: Spec{Problem: GlobalBroadcast, Source: 7},
			Seed: 46, MaxRounds: 256,
		}},
		{"sparse-other-cohort-wakes", Config{
			Net: sparseLinked, Algorithm: splitCohortAlg{batchAlg{p: 0.5}, 30, true},
			Spec: Spec{Problem: GlobalBroadcast, Source: 11},
			Seed: 47, MaxRounds: 40,
		}},
	}
	wrappers := []struct {
		name string
		wrap func(Algorithm) Algorithm
	}{
		{"as is", func(a Algorithm) Algorithm { return a }},
		{"dormancy hidden", func(a Algorithm) Algorithm { return hideDormancy{a} }},
		{"cohort hidden", func(a Algorithm) Algorithm { return hideCohort{a} }},
		{"bulk hidden", func(a Algorithm) Algorithm { return hideBulk{a} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off, wasOn := cohortOff(t, tc.cfg)
			_, split := tc.cfg.Algorithm.(splitCohortAlg)
			if !wasOn || off != split {
				t.Fatalf("cohort on at some round %v, off at the end %v; want on, and off only when a non-member wakes", wasOn, off)
			}
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

// mixedProbs are the probabilities mixedProc nodes report: runs of equal
// values, which the per-node bulk loop serves with one threshold, values one
// ulp apart, and the values Coin handles without a threshold (0, 1, NaN and
// out-of-range ones), between equal values.
var mixedProbs = []float64{0.4, 0.4, 0.4, 0.1, 1, 0.1, 0, 0.1, math.NaN(), 0.1,
	0.7, math.Nextafter(0.7, 1), 0.7, 2, -1, 0.25, 0.25, 1e-300}

// mixedProc is a BulkStepper outside any cohort whose informed nodes report
// mixedProbs by node and round, so consecutive awake nodes report runs of
// one p and the runs change within a round.
type mixedProc struct {
	id  int
	msg *Message
}

func (pr *mixedProc) TransmitProb(r int) float64 {
	if pr.msg == nil {
		return 0
	}
	return mixedProbs[(pr.id/3+r)%len(mixedProbs)]
}

func (pr *mixedProc) Frame(int) *Message { return pr.msg }

func (pr *mixedProc) Step(r int, rng *bitrand.Source) Action {
	if rng.Coin(pr.TransmitProb(r)) {
		return Transmit(pr.Frame(r))
	}
	return Listen()
}

func (pr *mixedProc) Deliver(_ int, msg *Message) {
	if msg != nil && pr.msg == nil {
		pr.msg = msg
	}
}

func (pr *mixedProc) Dormant() bool { return pr.msg == nil }

type mixedAlg struct{}

func (mixedAlg) Name() string { return "mixed-flood" }

func (mixedAlg) NewProcesses(net *graph.Dual, spec Spec, _ *bitrand.Source) []Process {
	procs := make([]Process, net.N())
	for u := range procs {
		procs[u] = &mixedProc{id: u}
	}
	procs[spec.Source].(*mixedProc).msg = &Message{Origin: spec.Source}
	return procs
}

// TestBulkThresholdReuse runs the per-node bulk loop, which reuses one coin
// threshold while consecutive nodes report the same p, against Step
// dispatch (hideBulk) on nodes whose probabilities change within and across
// rounds, and requires identical Results.
func TestBulkThresholdReuse(t *testing.T) {
	var src bitrand.Source
	src.Reseed(0x7e5)
	for _, net := range []*graph.Dual{
		graph.UniformDual(graph.Circulant(600, 40)),
		graph.AugmentDual(&src, graph.RingChords(&src, 3000, 3000), 3000),
	} {
		cfg := Config{Net: net, Algorithm: mixedAlg{}, Spec: Spec{Problem: GlobalBroadcast, Source: 5},
			Seed: 48, MaxRounds: 120, IgnoreCompletion: true}
		x, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !x.allBulk || x.cohort != nil {
			t.Fatalf("allBulk %v, cohort %v: the execution must take the per-node bulk loop", x.allBulk, x.cohort)
		}
		x.Close()
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Algorithm = hideBulk{cfg.Algorithm}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Transmissions == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: bulk loop (transmissions %d, deliveries %d) differs from Step dispatch (%d, %d)",
				net.N(), want.Transmissions, want.Deliveries, got.Transmissions, got.Deliveries)
		}
	}
}
