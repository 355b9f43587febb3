package radio_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// The word-parallel delivery path must be observationally identical to the
// scalar CSR walk: same transmitters, same delivery set, same monitor
// verdicts, same per-node energy — for every adversary class and across
// epoch swaps. These tests run each configuration under PlanScalar and
// PlanBitmap with the same seed and compare everything the engine reports,
// with the naive ReferenceDeliveries oracle as the third witness.

// fixedLink commits a static schedule replaying one selector.
type fixedLink struct{ sel graph.EdgeSelector }

func (l fixedLink) CommitSchedule(*radio.Env) radio.Schedule {
	return radio.StaticSchedule{Selector: l.sel}
}

// flickerLink is an online adaptive adversary that rotates through all /
// none / a partial cross-cut, exercising the precomputed G and G' rows and
// the per-round scalar fallback (partial adaptive selectors have no mask).
type flickerLink struct{}

func (flickerLink) ChooseOnline(env *radio.Env, view *radio.View) graph.EdgeSelector {
	switch view.Round % 3 {
	case 0:
		return graph.SelectAll{}
	case 1:
		return graph.SelectNone{}
	}
	return graph.SelectCrossCut{InA: func(u graph.NodeID) bool { return u%3 == 0 }}
}

// denseDual builds the equivalence substrate: a circulant reliable core with
// sampled unreliable extras.
func denseDual(t testing.TB, n, deg, extra int, seed uint64) *graph.Dual {
	t.Helper()
	var src bitrand.Source
	src.Reseed(seed)
	d := graph.AugmentDual(&src, graph.Circulant(n, deg), extra)
	if d.G().NumEdges() == d.GPrime().NumEdges() {
		t.Fatal("substrate has no unreliable edges; the selector paths would be vacuous")
	}
	return d
}

// halfExtraEdges returns every other E'\E edge, for a partial static set.
func halfExtraEdges(d *graph.Dual) []graph.EdgeKey {
	var edges []graph.EdgeKey
	keep := true
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if v <= u {
				continue
			}
			if keep {
				edges = append(edges, graph.EdgeKey{U: u, V: v})
			}
			keep = !keep
		}
	}
	return edges
}

// runPlan executes cfg under the given plan with a fresh recorder attached.
func runPlan(t testing.TB, cfg radio.Config, plan radio.DeliveryPlan) (radio.Result, *radio.MemRecorder) {
	t.Helper()
	rec := &radio.MemRecorder{}
	cfg.Plan = plan
	cfg.Recorder = rec
	res, err := radio.Run(cfg)
	if err != nil {
		t.Fatalf("plan %d: %v", plan, err)
	}
	return res, rec
}

// comparePlans runs cfg under the scalar and bitmap plans and fails on any
// observable difference. A bitmap round whose selector is all or none runs
// the kernel (or the complete-topology fast path), which reports deliveries
// in ascending listener order; a partial selector takes the CSR walk, which
// reports them in discovery order. The bitmap order is checked first, then
// per-round delivery lists compare as sets.
func comparePlans(t testing.TB, cfg radio.Config) {
	t.Helper()
	sres, srec := runPlan(t, cfg, radio.PlanScalar)
	bres, brec := runPlan(t, cfg, radio.PlanBitmap)
	if !reflect.DeepEqual(sres, bres) {
		t.Errorf("results differ:\n scalar: %+v\n bitmap: %+v", sres, bres)
	}
	if len(srec.Rounds) != len(brec.Rounds) {
		t.Fatalf("round counts differ: scalar %d, bitmap %d", len(srec.Rounds), len(brec.Rounds))
	}
	for i := range srec.Rounds {
		sr, br := srec.Rounds[i], brec.Rounds[i]
		if !reflect.DeepEqual(sr.Transmitters, br.Transmitters) {
			t.Fatalf("round %d transmitters differ: scalar %v, bitmap %v", sr.Round, sr.Transmitters, br.Transmitters)
		}
		if sr.SelectorKind != br.SelectorKind {
			t.Fatalf("round %d selector kind differs: scalar %q, bitmap %q", sr.Round, sr.SelectorKind, br.SelectorKind)
		}
		if k := br.SelectorKind; k == "all" || k == "none" {
			for j := 1; j < len(br.Deliveries); j++ {
				if br.Deliveries[j-1].To >= br.Deliveries[j].To {
					t.Fatalf("round %d (%s): bitmap deliveries not in ascending listener order: %v", br.Round, br.SelectorKind, br.Deliveries)
				}
			}
		}
		radio.SortDeliveries(sr.Deliveries)
		radio.SortDeliveries(br.Deliveries)
		if !reflect.DeepEqual(sr.Deliveries, br.Deliveries) {
			t.Fatalf("round %d deliveries differ:\n scalar: %v\n bitmap: %v", sr.Round, sr.Deliveries, br.Deliveries)
		}
	}
}

func TestBitmapScalarEquivalence(t *testing.T) {
	d := denseDual(t, 96, 10, 400, 0x5ca1e)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 3}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7, 19, 40, 66, 91}}

	cases := []struct {
		name string
		cfg  radio.Config
	}{
		{"no-link", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Seed: 11, MaxRounds: 160,
		}},
		{"static-all", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Link: fixedLink{graph.SelectAll{}}, Seed: 12, MaxRounds: 160,
		}},
		{"static-set", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d))}, Seed: 13, MaxRounds: 160,
		}},
		{"online-flicker", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Link: flickerLink{}, Seed: 14, MaxRounds: 160,
		}},
		{"aloha-local", radio.Config{
			Net: d, Algorithm: core.Aloha{P: 0.25}, Spec: local,
			Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d))}, Seed: 15, MaxRounds: 160,
			IgnoreCompletion: true,
		}},
		{"decay-local", radio.Config{
			Net: d, Algorithm: core.DecayLocal{}, Spec: local,
			Link: flickerLink{}, Seed: 16, MaxRounds: 160,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { comparePlans(t, tc.cfg) })
	}
}

// TestBitmapEquivalenceAcrossEpochs pins the swapEpoch re-plan: the mask
// rows must re-hoist per revision exactly like the CSR views.
func TestBitmapEquivalenceAcrossEpochs(t *testing.T) {
	d0 := denseDual(t, 96, 10, 400, 0xe0)
	d1 := denseDual(t, 96, 6, 120, 0xe1)
	cfg := radio.Config{
		Epochs:    []radio.Epoch{{Start: 0, Net: d0}, {Start: 9, Net: d1}, {Start: 30, Net: d0}},
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 5},
		Link:      flickerLink{},
		Seed:      21,
		MaxRounds: 200,
	}
	comparePlans(t, cfg)
}

// TestBitmapMatchesReference replays every recorded round of a bitmap
// execution through the naive O(n·Δ) oracle.
func TestBitmapMatchesReference(t *testing.T) {
	d := denseDual(t, 80, 8, 300, 0x0f)
	rec := &radio.MemRecorder{}
	_, err := radio.Run(radio.Config{
		Net:       d,
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		Link:      fixedLink{graph.NewSelectSet(halfExtraEdges(d))},
		Seed:      31,
		MaxRounds: 120,
		Plan:      radio.PlanBitmap,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.Rounds {
		want := radio.ReferenceDeliveries(d, r.Selector, r.Transmitters)
		radio.SortDeliveries(want)
		got := append([]radio.Delivery(nil), r.Deliveries...)
		radio.SortDeliveries(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d deliveries diverge from reference:\n got:  %v\n want: %v", r.Round, got, want)
		}
	}
}

// FuzzBitmapScalarEquivalence is the differential fuzzer: random sparse-ish
// duals, every adversary shape, both plans, each plan also run with
// dormancy hidden (HideDormancy), and the bitmap plan cross-checked per
// round against the reference oracle. Wired into the CI fuzz-smoke job.
func FuzzBitmapScalarEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(40), uint16(120), uint8(0), false)
	f.Add(uint64(2), uint16(100), uint16(0), uint16(300), uint8(1), true)
	f.Add(uint64(3), uint16(33), uint16(50), uint16(80), uint8(2), false)
	f.Add(uint64(4), uint16(150), uint16(10), uint16(500), uint8(3), true)
	f.Add(uint64(5), uint16(70), uint16(70), uint16(0), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, chords, extra uint16, selKind uint8, local bool) {
		nn := 8 + int(n)%250
		var src bitrand.Source
		src.Reseed(seed)
		d := graph.AugmentDual(&src, graph.RingChords(&src, nn, int(chords)%256), int(extra)%600)

		var link any
		switch selKind % 5 {
		case 1:
			link = fixedLink{graph.SelectAll{}}
		case 2:
			link = fixedLink{graph.SelectNone{}}
		case 3:
			edges := halfExtraEdges(d)
			if len(edges) == 0 {
				link = fixedLink{graph.SelectNone{}}
			} else {
				link = fixedLink{graph.NewSelectSet(edges)}
			}
		case 4:
			link = flickerLink{}
		}

		var alg radio.Algorithm
		var spec radio.Spec
		if local {
			alg = core.Aloha{P: 0.3}
			spec = radio.Spec{Problem: radio.LocalBroadcast,
				Broadcasters: []graph.NodeID{0, nn / 3, 2 * nn / 3}}
		} else {
			alg = core.DecayGlobal{}
			spec = radio.Spec{Problem: radio.GlobalBroadcast, Source: int(seed) % nn}
		}

		cfg := radio.Config{Net: d, Algorithm: alg, Spec: spec, Link: link,
			Seed: seed, MaxRounds: 64, IgnoreCompletion: local}
		comparePlans(t, cfg)
		compareDormancy(t, cfg, radio.PlanScalar)
		compareDormancy(t, cfg, radio.PlanBitmap)

		_, brec := runPlan(t, cfg, radio.PlanBitmap)
		for _, r := range brec.Rounds {
			want := radio.ReferenceDeliveries(d, r.Selector, r.Transmitters)
			radio.SortDeliveries(want)
			got := append([]radio.Delivery(nil), r.Deliveries...)
			radio.SortDeliveries(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d deliveries diverge from reference:\n got:  %v\n want: %v", r.Round, got, want)
			}
		}
	})
}

// TestMaxRoundsGuard pins the large-n footgun fix: above
// maxDefaultRoundsNodes the 64·n² default is refused, an explicit budget is
// accepted.
func TestMaxRoundsGuard(t *testing.T) {
	big := graph.UniformDual(graph.Line(4200))
	cfg := radio.Config{
		Net:       big,
		Algorithm: core.RoundRobin{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
	}
	_, err := radio.Run(cfg)
	if !errors.Is(err, radio.ErrBadConfig) {
		t.Fatalf("n=4200 without MaxRounds: got err %v, want ErrBadConfig", err)
	}
	// Regression: the refusal must say what was exceeded — the computed
	// default budget (64·4200² = 1128960000 rounds) and the cap it is
	// allowed up to (4096 nodes) — so the caller can act on the message.
	for _, want := range []string{"1128960000", "4096"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("guard message %q does not report %q", err.Error(), want)
		}
	}
	cfg.MaxRounds = 50
	if _, err := radio.Run(cfg); err != nil {
		t.Fatalf("n=4200 with explicit MaxRounds: %v", err)
	}

	small := graph.UniformDual(graph.Line(64))
	cfg = radio.Config{
		Net:       small,
		Algorithm: core.RoundRobin{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
	}
	if _, err := radio.Run(cfg); err != nil {
		t.Fatalf("n=64 default MaxRounds: %v", err)
	}
}

// TestPlanValidation pins the Plan config checks.
func TestPlanValidation(t *testing.T) {
	d := graph.UniformDual(graph.Line(16))
	base := radio.Config{
		Net:       d,
		Algorithm: core.RoundRobin{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		MaxRounds: 32,
	}

	for _, plan := range []radio.DeliveryPlan{-1, 3, 99} {
		cfg := base
		cfg.Plan = plan
		if _, err := radio.Run(cfg); !errors.Is(err, radio.ErrBadConfig) {
			t.Errorf("out-of-range %v: got err %v, want ErrBadConfig", plan, err)
		}
	}

	cfg := base
	cfg.Plan = radio.PlanBitmap
	cfg.UseCliqueCover = true
	if _, err := radio.Run(cfg); !errors.Is(err, radio.ErrBadConfig) {
		t.Errorf("PlanBitmap+UseCliqueCover: got err %v, want ErrBadConfig", err)
	}
}
