package radio_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TestDormancyHiddenEquivalence is the differential gate for the engine's
// awake set: every core algorithm that reports Dormant, under every
// adversary shape and an epoch schedule, at every plan, must produce the
// same Result and the same per-round trace whether the engine honours
// dormancy or the HideDormancy wrapper keeps every node awake.
func TestDormancyHiddenEquivalence(t *testing.T) {
	d0 := denseDual(t, 96, 10, 400, 0xd0e0)
	d1 := denseDual(t, 96, 6, 120, 0xd0e1)
	setups := []struct {
		name string
		cfg  radio.Config
	}{
		{"no-link", radio.Config{Net: d0}},
		{"static-partial", radio.Config{Net: d0, Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d0))}}},
		{"online-adaptive", radio.Config{Net: d0, Link: flickerLink{}}},
		{"offline-adaptive", radio.Config{Net: d0, Link: adversary.Jam{}}},
		{"presample", radio.Config{Net: d0, Link: adversary.Presample{Horizon: 200}}},
		{"two-epoch-churn", radio.Config{Epochs: []radio.Epoch{{Start: 0, Net: d0}, {Start: 40, Net: d1}}}},
	}
	algs := []radio.Algorithm{core.DecayGlobal{}, core.PermutedGlobal{}, core.RoundRobin{}, core.DerandBroadcast{}}
	for _, alg := range algs {
		for _, su := range setups {
			t.Run(alg.Name()+"/"+su.name, func(t *testing.T) {
				cfg := su.cfg
				cfg.Algorithm = alg
				cfg.Spec = radio.Spec{Problem: radio.GlobalBroadcast, Source: 5}
				cfg.Seed, cfg.MaxRounds = 77, 1500
				for _, plan := range []radio.DeliveryPlan{radio.PlanScalar, radio.PlanAuto, radio.PlanBitmap} {
					compareDormancy(t, cfg, plan)
				}
			})
		}
	}
}

// compareDormancy runs cfg under plan with dormancy honoured and hidden and
// fails on any difference in the Result or the recorded rounds.
func compareDormancy(t testing.TB, cfg radio.Config, plan radio.DeliveryPlan) {
	t.Helper()
	res, rec := runPlan(t, cfg, plan)
	cfg.Algorithm = radio.HideDormancy(cfg.Algorithm)
	hres, hrec := runPlan(t, cfg, plan)
	if !reflect.DeepEqual(res, hres) {
		t.Fatalf("%v: results differ:\n honoured: %+v\n hidden:   %+v", plan, res, hres)
	}
	if len(rec.Rounds) != len(hrec.Rounds) {
		t.Fatalf("%v: round counts differ: honoured %d, hidden %d", plan, len(rec.Rounds), len(hrec.Rounds))
	}
	for i, a := range rec.Rounds {
		b := hrec.Rounds[i]
		if a.Round != b.Round || a.SelectorKind != b.SelectorKind ||
			!reflect.DeepEqual(a.Transmitters, b.Transmitters) || !reflect.DeepEqual(a.Deliveries, b.Deliveries) {
			t.Fatalf("%v: round %d differs:\n honoured: %v %v %v\n hidden:   %v %v %v", plan, a.Round,
				a.SelectorKind, a.Transmitters, a.Deliveries, b.SelectorKind, b.Transmitters, b.Deliveries)
		}
	}
}
