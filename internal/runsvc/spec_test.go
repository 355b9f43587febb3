package runsvc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/scenario"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := Spec{
		Experiments: []string{"CHURN-broadcast", "L3.2-hitting"},
		Full:        true,
		Trials:      7,
		Seed:        42,
		Workers:     3,
		Scenario: &ScenarioSpec{
			Side: 4,
			Seed: 9,
			Gen: scenario.GenConfig{
				Epochs: 2, EpochLen: 20, Leaves: 1, Demotions: 1,
				Protected: []graph.NodeID{0, 3},
				MaxRounds: 5000,
			},
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSpec(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"unknown field", `{"experiemnts": ["F1-static-local"]}`, "unknown field"},
		{"trailing data", `{"trials": 2} {"trials": 3}`, "trailing data"},
		{"wrong type", `{"trials": "two"}`, "trials"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestResolveSpecValidation(t *testing.T) {
	catalog := experiments.All()
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown id", Spec{Experiments: []string{"F1-nope"}}, `unknown experiment "F1-nope"`},
		{"substring is not a selection", Spec{Experiments: []string{"F1"}}, `unknown experiment "F1"`},
		{"negative trials", Spec{Trials: -1}, "trials must be >= 0"},
		{"negative workers", Spec{Workers: -2}, "workers must be >= 0"},
		{"tiny scenario", Spec{Scenario: &ScenarioSpec{Side: 1, Gen: scenario.GenConfig{EpochLen: 5}}}, "side 1"},
		{"scenario epoch geometry", Spec{Scenario: &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{Epochs: 2}}}, "EpochLen"},
		{"scenario injections", Spec{Scenario: &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{EpochLen: 5, InjectSources: []graph.NodeID{1}}}}, "InjectSources"},
		{"scenario protected range", Spec{Scenario: &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{EpochLen: 5, Protected: []graph.NodeID{99}}}}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := resolveSpec(tc.spec, catalog)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestResolveSpecNormalizes(t *testing.T) {
	catalog := experiments.All()

	// Duplicated, unsorted selection comes back sorted and deduplicated;
	// Trials 0 becomes the quick default.
	rs, err := resolveSpec(Spec{Experiments: []string{"L3.2-hitting", "CHURN-broadcast", "L3.2-hitting"}}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"CHURN-broadcast", "L3.2-hitting"}; !reflect.DeepEqual(rs.spec.Experiments, want) {
		t.Errorf("normalized selection = %v, want %v", rs.spec.Experiments, want)
	}
	if rs.spec.Trials != 5 || rs.cfg.Trials != 5 {
		t.Errorf("quick default trials not normalized: spec %d, cfg %d", rs.spec.Trials, rs.cfg.Trials)
	}
	if len(rs.exps) != 2 || rs.exps[0].ID != "CHURN-broadcast" {
		t.Errorf("resolved experiments = %v", rs.exps)
	}

	// Empty selection means the whole catalog.
	rs, err = resolveSpec(Spec{}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.exps) != len(catalog) {
		t.Errorf("empty selection resolved to %d experiments, want %d", len(rs.exps), len(catalog))
	}

	// A scenario alone runs just the scenario; combined with a selection it
	// joins it, in sorted position.
	sc := &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{Epochs: 1, EpochLen: 10}}
	rs, err = resolveSpec(Spec{Scenario: sc}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.exps) != 1 || !strings.HasPrefix(rs.exps[0].ID, "CUSTOM-churn-") {
		t.Errorf("scenario-only spec resolved to %+v", rs.exps)
	}
	rs, err = resolveSpec(Spec{Experiments: []string{"L3.2-hitting", "CHURN-broadcast"}, Scenario: sc}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.exps) != 3 {
		t.Fatalf("selection+scenario resolved to %d experiments", len(rs.exps))
	}
	for i := 1; i < len(rs.exps); i++ {
		if rs.exps[i-1].ID >= rs.exps[i].ID {
			t.Errorf("resolved experiments not sorted: %s >= %s", rs.exps[i-1].ID, rs.exps[i].ID)
		}
	}
}

// TestResolveSpecCaps pins both size caps at their boundaries: a spec at a
// cap resolves, one just past it is rejected before anything is planned,
// and sizes whose products would overflow an int are rejected too.
func TestResolveSpecCaps(t *testing.T) {
	catalog := experiments.All()
	one := []string{"F1-static-local"}
	scen := func(side, epochs int) *ScenarioSpec {
		return &ScenarioSpec{Side: side, Gen: scenario.GenConfig{Epochs: epochs, EpochLen: 30}}
	}
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"trials at cap", Spec{Experiments: one, Trials: MaxTrials}, true},
		{"trials past cap", Spec{Experiments: one, Trials: MaxTrials + 1}, false},
		{"trials far past cap", Spec{Experiments: one, Trials: 1 << 50}, false},
		{"side 128 at 6 epochs, at cap", Spec{Scenario: scen(128, 6)}, true},
		{"side 128 at 7 epochs", Spec{Scenario: scen(128, 7)}, false},
		{"side 8 at 2046 epochs, at cap", Spec{Scenario: scen(8, 2046)}, true},
		{"side 8 at 2047 epochs", Spec{Scenario: scen(8, 2047)}, false},
		{"side 256 at 0 epochs, at cap", Spec{Scenario: scen(256, 0)}, true},
		{"side 256 at 1 epoch", Spec{Scenario: scen(256, 1)}, false},
		{"side squared overflows", Spec{Scenario: scen(1<<32, 1)}, false},
		{"epochs plus two overflows", Spec{Scenario: scen(2, math.MaxInt)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := resolveSpec(tc.spec, catalog)
			if tc.ok && err != nil {
				t.Fatalf("spec at the cap rejected: %v", err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "exceeds the cap")) {
				t.Fatalf("error %v, want a cap rejection", err)
			}
		})
	}
}

// FuzzParseSpec feeds arbitrary bytes through the service's spec decoder and
// resolver — what every POST /v1/runs body reaches before planning: neither
// may panic, and resolution must never accept a spec past the size caps.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []Spec{
		testSpec(),
		{Experiments: []string{"F1-static-local"}, Trials: MaxTrials},
		{Trials: 2, Scenario: &ScenarioSpec{Side: 3, Seed: 5, Gen: scenario.GenConfig{Epochs: 1, EpochLen: 8, Leaves: 1}}},
		{Scenario: &ScenarioSpec{Side: 128, Gen: scenario.GenConfig{Epochs: 6, EpochLen: 30}}},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"scenario": {"side": 4, "seed": 9, "gen": {"epochs": 2, "epochLen": 30, "leaves": 1}}}`))
	f.Add([]byte(`{"experiments": ["F1-static-local"], "trials": 1125899906842624}`))
	f.Add([]byte(`{"scenario": {"side": 4294967296, "gen": {"epochs": 1, "epochLen": 1}}}`))
	catalog := experiments.All()
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		rs, err := resolveSpec(spec, catalog)
		if err != nil {
			return
		}
		if rs.cfg.Trials > MaxTrials {
			t.Fatalf("accepted %d trials per point, cap %d", rs.cfg.Trials, MaxTrials)
		}
		if sc := rs.spec.Scenario; sc != nil {
			side := big.NewInt(int64(sc.Side))
			topologies := new(big.Int).Add(big.NewInt(int64(sc.Gen.Epochs)), big.NewInt(2))
			revs := new(big.Int).Mul(new(big.Int).Mul(side, side), topologies)
			if revs.Cmp(big.NewInt(maxScenarioRevisions)) > 0 {
				t.Fatalf("accepted side %d at %d epochs: %v node-revisions, cap %d", sc.Side, sc.Gen.Epochs, revs, maxScenarioRevisions)
			}
		}
	})
}
