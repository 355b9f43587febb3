package adversary

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
)

// eagerPresampleLabels is the reference the lazy schedule must reproduce:
// every sample presimulated to the whole horizon before round 0 (and past
// it when a rumor injection falls later), a round dense when every sample's
// transmitter count exceeds the threshold.
func eagerPresampleLabels(t *testing.T, a Presample, env *radio.Env) []bool {
	t.Helper()
	n := env.Net.N()
	horizon := a.Horizon
	if horizon <= 0 {
		horizon = 8 * n
	}
	horizon = min(horizon, env.MaxRounds)
	samples := a.Samples
	if samples <= 0 {
		samples = 3
	}
	c, floor := a.C, a.Floor
	if c <= 0 {
		c = 2
	}
	if floor <= 0 {
		floor = 8
	}
	threshold := max(c*bitrand.NaturalLog(n), floor)

	labels := make([]bool, horizon)
	for r := range labels {
		labels[r] = true
	}
	for s := 0; s < samples; s++ {
		budget := horizon
		for _, inj := range env.Spec.Injections {
			budget = max(budget, inj.Round+1)
		}
		rec := &radio.TxCountRecorder{}
		cfg := radio.Config{
			Algorithm:        env.Algorithm,
			Spec:             env.Spec,
			Seed:             env.Rng.Split(0x5a3b, uint64(s)).Uint64(),
			MaxRounds:        budget,
			Recorder:         rec,
			IgnoreCompletion: true,
			UseCliqueCover:   true,
		}
		if len(env.Epochs) > 0 {
			cfg.Epochs = env.Epochs
		} else {
			cfg.Net = env.Net
		}
		if _, err := radio.Run(cfg); err != nil {
			t.Fatal(err)
		}
		for r := range labels {
			labels[r] = labels[r] && float64(rec.Counts[r]) > threshold
		}
	}
	return labels
}

// lazyCase is one adversary and environment the lazy schedule is checked
// against.
type lazyCase struct {
	name string
	link Presample
	env  func(seed uint64) *radio.Env
	// mixed requires both labels among the horizon's rounds, so the
	// comparison is not against a constant schedule.
	mixed bool
}

func lazyCases(t *testing.T) []lazyCase {
	t.Helper()
	dual96, _ := graph.DualClique(96, 3)
	dual128, _ := graph.DualClique(128, 3)
	dual32, _ := graph.DualClique(32, 3)

	b0 := graph.NewBuilder(3)
	b0.AddEdge(0, 1)
	line := graph.UniformDual(b0.Build())
	rev, err := graph.NewRevision(line).Apply([]graph.ChurnOp{{Kind: graph.ChurnAddEdge, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// The swap falls past the first presimulation budget, so only a
	// relabelling under the epoch schedule can see it.
	epochs := []radio.Epoch{{Start: 0, Net: line}, {Start: 3 * presampleMinBudget / 2, Net: rev.Dual()}}

	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	envOf := func(net *graph.Dual, alg radio.Algorithm, spec radio.Spec, maxRounds int) func(uint64) *radio.Env {
		return func(seed uint64) *radio.Env {
			return &radio.Env{Net: net, Spec: spec, Algorithm: alg, Rng: bitrand.New(seed), MaxRounds: maxRounds}
		}
	}
	cases := []lazyCase{
		// EXT-derand's grid: the dual clique at its quick size, the default
		// adversary, the experiment's round budget.
		{name: "ext-derand/derand", link: Presample{}, env: envOf(dual96, core.DerandBroadcast{}, global, 400*96)},
		{name: "ext-derand/decay", link: Presample{}, env: envOf(dual96, core.DecayGlobal{}, global, 400*96), mixed: true},
		{name: "ext-derand/round-robin", link: Presample{}, env: envOf(dual96, core.RoundRobin{}, global, 400*96)},
		// F1-oblivious-global's adversary against permuted decay.
		{name: "permuted/4n", link: Presample{C: 1, Horizon: 4 * 128}, env: envOf(dual128, core.PermutedGlobal{}, global, 64*128*128), mixed: true},
		{name: "epochs", link: Presample{C: 0.1, Floor: 2.5, Samples: 1, Horizon: 3 * presampleMinBudget}, env: func(seed uint64) *radio.Env {
			return &radio.Env{Net: line, Epochs: epochs, Spec: global, Algorithm: beaconAlg{}, Rng: bitrand.New(seed), MaxRounds: 1000}
		}, mixed: true},
		// A rumor injected past the first budget: every presimulation's
		// budget stretches to admit it, and its counts past the labelled
		// prefix are discarded. TDM gossip rarely has two transmitters, so
		// the threshold labels a round dense when it has any.
		{name: "gossip/injection", link: Presample{C: 0.01, Floor: 0.5, Samples: 1, Horizon: 6 * presampleMinBudget}, env: envOf(dual32, gossip.TDM{}, radio.Spec{
			Problem:    radio.Gossip,
			Sources:    []graph.NodeID{0},
			Injections: []radio.Injection{{Source: 20, Round: 5 * presampleMinBudget / 2}},
		}, 1000), mixed: true},
	}
	return cases
}

// TestPresampleLazyMatchesEager pins lazy labelling: whatever order the
// rounds are consulted in, every label equals the one an eager
// presimulation to the horizon commits, and rounds past the horizon stay
// sparse. The schedule is consulted only after the environment's stream has
// moved on, so a schedule that derived its seeds after commit would differ.
func TestPresampleLazyMatchesEager(t *testing.T) {
	for _, tc := range lazyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 0xfeed} {
				want := eagerPresampleLabels(t, tc.link, tc.env(seed))
				horizon := len(want)
				if tc.mixed {
					dense := 0
					for _, d := range want {
						if d {
							dense++
						}
					}
					if dense == 0 || dense == horizon {
						t.Fatalf("seed %d: %d of %d rounds dense; the case must mix both labels", seed, dense, horizon)
					}
				}

				ascending := make([]int, horizon+3)
				for i := range ascending {
					ascending[i] = i
				}
				// Last labelled round first, then the rest shuffled.
				shuffled := append([]int(nil), ascending...)
				rng := bitrand.New(seed)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				for i, r := range shuffled {
					if r == horizon-1 {
						shuffled[0], shuffled[i] = shuffled[i], shuffled[0]
					}
				}

				for _, order := range [][]int{ascending, shuffled} {
					env := tc.env(seed)
					sched := tc.link.CommitSchedule(env)
					env.Rng.Uint64()
					for _, r := range order {
						sel := sched.SelectorFor(r)
						dense := r < horizon && want[r]
						if sel.All() != dense || sel.None() == dense {
							t.Fatalf("seed %d, order starting %v: round %d labelled all=%v none=%v, eager label dense=%v",
								seed, order[:3], r, sel.All(), sel.None(), dense)
						}
					}
				}
			}
		})
	}
}

// stepCounted wraps an algorithm so its processes forward only
// radio.Process: no optional interface reaches the engine, so every node
// steps in every round, and the source's Step calls count the rounds each
// execution ran. runs[i] is the round count of the i-th process set built.
type stepCounted struct {
	alg  radio.Algorithm
	runs *[]int
}

func (s stepCounted) Name() string { return s.alg.Name() }

func (s stepCounted) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	procs := s.alg.NewProcesses(net, spec, rng)
	*s.runs = append(*s.runs, 0)
	run := len(*s.runs) - 1
	for u, p := range procs {
		c := &countedProc{Process: p}
		if graph.NodeID(u) == spec.Source {
			c.runs, c.run = s.runs, run
		}
		procs[u] = c
	}
	return procs
}

type countedProc struct {
	radio.Process
	runs *[]int
	run  int
}

func (p *countedProc) Step(r int, rng *bitrand.Source) radio.Action {
	if p.runs != nil {
		(*p.runs)[p.run]++
	}
	return p.Process.Step(r, rng)
}

// TestPresampleCostBound pins what lazy labelling saves: an execution that
// stops after R rounds presimulates at most max(4R, presampleMinBudget)
// rounds per sample, however long the horizon. The last presimulation is at
// most max(2R, presampleMinBudget) rounds; the earlier ones at least double
// each time and the longest is shorter than R, so together they are under
// 2R. The horizon here is far past every stopping round, so an eager
// schedule would presimulate samples·horizon.
func TestPresampleCostBound(t *testing.T) {
	const n = 64
	d, _ := graph.DualClique(n, 3)
	const samples = 3
	link := Presample{C: 1, Horizon: 64 * n, Samples: samples}
	for _, alg := range []radio.Algorithm{core.DecayGlobal{}, core.PermutedGlobal{}, core.RoundRobin{}} {
		for seed := uint64(1); seed <= 4; seed++ {
			var runs []int
			res, err := radio.Run(radio.Config{
				Net:            d,
				Algorithm:      stepCounted{alg: alg, runs: &runs},
				Spec:           radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
				Link:           link,
				Seed:           seed,
				MaxRounds:      128 * n,
				UseCliqueCover: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved || runs[0] != res.Rounds {
				t.Fatalf("%s seed %d: solved=%v after %d rounds, the real execution stepped its source %d times",
					alg.Name(), seed, res.Solved, res.Rounds, runs[0])
			}
			R := res.Rounds
			presim := 0
			for _, rounds := range runs[1:] {
				if rounds > max(2*R, presampleMinBudget) {
					t.Errorf("%s seed %d: a %d-round presimulation for a %d-round execution", alg.Name(), seed, rounds, R)
				}
				presim += rounds
			}
			if len(runs[1:])%samples != 0 {
				t.Errorf("%s seed %d: %d presimulations, not a multiple of %d samples", alg.Name(), seed, len(runs)-1, samples)
			}
			if bound := samples * max(4*R, presampleMinBudget); presim > bound {
				t.Errorf("%s seed %d: %d presimulated rounds for a %d-round execution, bound %d",
					alg.Name(), seed, presim, R, bound)
			}
			t.Logf("%s seed %d: %d rounds, %d presimulated in %d runs (eager: %d)",
				alg.Name(), seed, R, presim, len(runs)-1, samples*link.Horizon)
		}
	}
}
