package radio_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// viewDigest folds the exact bits of every round's View.TransmitProbs into
// one hash, so two runs compare the views an adaptive adversary saw, not
// only the choices it made from them.
type viewDigest uint64

func (d *viewDigest) add(view *radio.View) {
	h := uint64(*d) ^ uint64(view.Round)
	for _, p := range view.TransmitProbs {
		h = (h ^ math.Float64bits(p)) * 0x100000001b3
	}
	*d = viewDigest(h)
}

// onlineDigest and offlineDigest wrap an adaptive adversary of their class
// and digest every view it is handed.
type onlineDigest struct {
	link radio.OnlineAdaptiveLink
	d    *viewDigest
}

func (o onlineDigest) ChooseOnline(env *radio.Env, view *radio.View) graph.EdgeSelector {
	o.d.add(view)
	return o.link.ChooseOnline(env, view)
}

type offlineDigest struct {
	link radio.OfflineAdaptiveLink
	d    *viewDigest
}

func (o offlineDigest) ChooseOffline(env *radio.Env, view *radio.View, tx []graph.NodeID) graph.EdgeSelector {
	o.d.add(view)
	return o.link.ChooseOffline(env, view, tx)
}

// TestCohortEquivalence is the differential gate for the cohort path (see
// radio.CohortMember) on the core algorithms: decay global, decay local and
// ALOHA, whose nodes are cohort members, and permuted decay, a bulk stepper
// that is no member. Every run must give the same Result, and under an
// adaptive adversary the same digest of its views, whether the engine
// draws the coins through the cohort, through the per-node bulk loop
// (HideCohort) or by Step dispatch (HideBulk), under every plan: with no
// link, a committed partial selector, the online DenseSparse adversary,
// which sums the view, the offline Jam, and an epoch schedule.
func TestCohortEquivalence(t *testing.T) {
	d0 := denseDual(t, 96, 10, 400, 0xc0e0)
	d1 := denseDual(t, 96, 6, 120, 0xc0e1)
	var every3 []graph.NodeID
	for u := 0; u < d0.N(); u += 3 {
		every3 = append(every3, u)
	}
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 5}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: every3}
	algs := []struct {
		alg  radio.Algorithm
		spec radio.Spec
	}{
		{core.DecayGlobal{}, global},
		{core.DecayLocal{}, local},
		{core.Aloha{P: 0.2}, local},
		{core.PermutedGlobal{}, global},
	}
	setups := []struct {
		name string
		cfg  radio.Config
	}{
		{"no-link", radio.Config{Net: d0}},
		{"static-partial", radio.Config{Net: d0, Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d0))}}},
		{"dense-sparse", radio.Config{Net: d0, Link: adversary.DenseSparse{C: 1}}},
		{"jam", radio.Config{Net: d0, Link: adversary.Jam{}}},
		{"two-epoch-churn", radio.Config{Epochs: []radio.Epoch{{Start: 0, Net: d0}, {Start: 40, Net: d1}}}},
	}
	wrappers := []struct {
		name string
		wrap func(radio.Algorithm) radio.Algorithm
	}{
		{"as is", func(a radio.Algorithm) radio.Algorithm { return a }},
		{"cohort hidden", radio.HideCohort},
		{"bulk hidden", radio.HideBulk},
	}
	for _, a := range algs {
		for _, su := range setups {
			t.Run(a.alg.Name()+"/"+su.name, func(t *testing.T) {
				var want radio.Result
				var wantView viewDigest
				for i, plan := range []radio.DeliveryPlan{radio.PlanScalar, radio.PlanAuto, radio.PlanBitmap} {
					for j, w := range wrappers {
						cfg := su.cfg
						cfg.Algorithm = w.wrap(a.alg)
						cfg.Spec = a.spec
						cfg.Plan = plan
						cfg.Seed, cfg.MaxRounds, cfg.IgnoreCompletion = 61, 300, true
						var view viewDigest
						switch l := cfg.Link.(type) {
						case radio.OnlineAdaptiveLink:
							cfg.Link = onlineDigest{l, &view}
						case radio.OfflineAdaptiveLink:
							cfg.Link = offlineDigest{l, &view}
						}
						res, err := radio.Run(cfg)
						if err != nil {
							t.Fatalf("%v (%s): %v", plan, w.name, err)
						}
						if i == 0 && j == 0 {
							if res.Transmissions == 0 || res.Deliveries == 0 {
								t.Fatal("no transmissions or no deliveries: the case exercises nothing")
							}
							want, wantView = res, view
							continue
						}
						if !reflect.DeepEqual(res, want) {
							t.Errorf("%v (%s) result differs (transmissions %d vs %d, deliveries %d vs %d)",
								plan, w.name, res.Transmissions, want.Transmissions, res.Deliveries, want.Deliveries)
						}
						if view != wantView {
							t.Errorf("%v (%s): the adversary saw other transmit probabilities", plan, w.name)
						}
					}
				}
			})
		}
	}
}
