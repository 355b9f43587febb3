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
	// The swap falls mid-horizon, so only presimulating under the epoch
	// schedule can see it.
	epochs := []radio.Epoch{{Start: 0, Net: line}, {Start: 24, Net: rev.Dual()}}

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
		{name: "epochs", link: Presample{C: 0.1, Floor: 2.5, Samples: 1, Horizon: 48}, env: func(seed uint64) *radio.Env {
			return &radio.Env{Net: line, Epochs: epochs, Spec: global, Algorithm: beaconAlg{}, Rng: bitrand.New(seed), MaxRounds: 1000}
		}, mixed: true},
		// A rumor injected mid-horizon changes the later counts. TDM gossip
		// rarely has two transmitters, so the threshold labels a round dense
		// when it has any.
		{name: "gossip/injection", link: Presample{C: 0.01, Floor: 0.5, Samples: 1, Horizon: 96}, env: envOf(dual32, gossip.TDM{}, radio.Spec{
			Problem:    radio.Gossip,
			Sources:    []graph.NodeID{0},
			Injections: []radio.Injection{{Source: 20, Round: 40}},
		}, 1000), mixed: true},
		// A rumor injected past the horizon: the samples' budget stretches
		// to admit it, and no round past the horizon is labelled.
		{name: "gossip/late-injection", link: Presample{C: 0.01, Floor: 0.5, Samples: 2, Horizon: 32}, env: envOf(dual32, gossip.TDM{}, radio.Spec{
			Problem:    radio.Gossip,
			Sources:    []graph.NodeID{0},
			Injections: []radio.Injection{{Source: 20, Round: 40}},
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

// TestPresampleReopensAfterClose pins the close contract's last clause:
// Close changes no label. A schedule closed partway through its horizon and
// asked again reopens its samples, and every label, before and past where
// it was closed, is still the eager one.
func TestPresampleReopensAfterClose(t *testing.T) {
	for _, tc := range lazyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want := eagerPresampleLabels(t, tc.link, tc.env(3))
			sched := tc.link.CommitSchedule(tc.env(3)).(*presampleSchedule)
			for _, upTo := range []int{len(want) / 3, len(want) + 2} {
				for r := 0; r < upTo; r++ {
					if dense := r < len(want) && want[r]; sched.SelectorFor(r).All() != dense {
						t.Fatalf("round %d (asking up to %d) labelled dense=%v, eager %v", r, upTo, !dense, dense)
					}
				}
				sched.Close()
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

// TestPresampleCostBound pins what resuming saves: each sample is set up
// once per host execution, and an execution that stops after R rounds steps
// each sample min(R, horizon) rounds, none twice, however long the horizon.
// The long horizon here is far past every stopping round, so an eager
// schedule would presimulate samples·horizon rounds; the short one ends the
// labels before the execution stops.
func TestPresampleCostBound(t *testing.T) {
	const n = 64
	d, _ := graph.DualClique(n, 3)
	const samples = 3
	for _, horizon := range []int{64 * n, 8} {
		link := Presample{C: 1, Horizon: horizon, Samples: samples}
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
				if len(runs[1:]) != samples {
					t.Errorf("%s horizon %d seed %d: %d presimulations set up, want one per sample (%d)",
						alg.Name(), horizon, seed, len(runs)-1, samples)
				}
				presim := 0
				for _, rounds := range runs[1:] {
					if rounds != min(R, horizon) {
						t.Errorf("%s horizon %d seed %d: a sample stepped %d rounds for a %d-round execution, want %d",
							alg.Name(), horizon, seed, rounds, R, min(R, horizon))
					}
					presim += rounds
				}
				t.Logf("%s horizon %d seed %d: %d rounds, %d presimulated in %d runs (eager: %d)",
					alg.Name(), horizon, seed, R, presim, len(runs)-1, samples*horizon)
			}
		}
	}
}

// keptLink commits Presample's schedule and keeps it for inspection.
type keptLink struct {
	Presample
	sched **presampleSchedule
}

func (k keptLink) CommitSchedule(env *radio.Env) radio.Schedule {
	s := k.Presample.CommitSchedule(env).(*presampleSchedule)
	*k.sched = s
	return s
}

// failingRestart builds processes for the first execution only: every later
// process set is one short, so every presimulation fails to start.
type failingRestart struct {
	radio.Algorithm
	built *int
}

func (f failingRestart) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	procs := f.Algorithm.NewProcesses(net, spec, rng)
	if *f.built++; *f.built > 1 {
		procs = procs[1:]
	}
	return procs
}

// openWatch is a host recorder that notes the rounds at which the schedule
// held open samples.
type openWatch struct {
	sched **presampleSchedule
	open  []int
}

func (w *openWatch) Record(rec radio.RoundRecord) {
	if len((*w.sched).runs) > 0 {
		w.open = append(w.open, rec.Round)
	}
}

// TestPresampleClosesSamples pins the schedule's side of the close
// contract: no sample execution is open once the host Run returns — whether
// the host solves before the horizon, the labels reach the horizon first
// (the samples close in that round), or a presimulation fails to start (the
// labels are all sparse) — and the samples are closed, not dropped, so a
// warmed-up host execution gets its samples' scratch back from the pool.
func TestPresampleClosesSamples(t *testing.T) {
	const n = 64
	d, _ := graph.DualClique(n, 3)
	spec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	var built int
	for _, tc := range []struct {
		name    string
		alg     radio.Algorithm
		horizon int
		// wantOpen is the number of rounds the samples stay open in: every
		// round for a host that solves first (they close when it ends), the
		// horizon's rounds but the last for a short one (they close in it),
		// none when they fail to start.
		wantOpen func(rounds int) int
		failed   bool
	}{
		{"solves-first", core.DecayGlobal{}, 64 * n, func(r int) int { return r }, false},
		{"horizon-first", core.DecayGlobal{}, 6, func(int) int { return 5 }, false},
		{"start-fails", failingRestart{core.DecayGlobal{}, &built}, 64 * n, func(int) int { return 0 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sched *presampleSchedule
			watch := &openWatch{sched: &sched}
			res, err := radio.Run(radio.Config{
				Net:            d,
				Algorithm:      tc.alg,
				Spec:           spec,
				Link:           keptLink{Presample{C: 1, Horizon: tc.horizon}, &sched},
				Seed:           7,
				MaxRounds:      128 * n,
				Recorder:       watch,
				UseCliqueCover: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sched.runs != nil {
				t.Errorf("%d sample executions open after Run returned", len(sched.runs))
			}
			if sched.failed != tc.failed {
				t.Errorf("failed = %v, want %v", sched.failed, tc.failed)
			}
			want := tc.wantOpen(res.Rounds)
			if len(watch.open) != want || (want > 0 && watch.open[want-1] != want-1) {
				t.Errorf("samples open in rounds %v of %d, want rounds 0 to %d", watch.open, res.Rounds, want-1)
			}
			if tc.failed && len(sched.dense) != 0 {
				t.Errorf("%d rounds labelled after a failed start", len(sched.dense))
			}
		})
	}

	if testing.Short() || raceEnabled {
		return
	}
	// Samples left open would each check out a fresh scratch on every host
	// execution, about twenty slabs apiece.
	seed := uint64(0)
	trial := func() {
		seed++
		_, err := radio.Run(radio.Config{Net: d, Algorithm: core.DecayGlobal{}, Spec: spec,
			Link: Presample{C: 1, Horizon: 64 * n}, Seed: seed, MaxRounds: 128 * n, UseCliqueCover: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Measured at 18: the engine, the Result, the schedule with its seeds,
	// labels and sample list, and the three sample executions.
	const budget = 24
	got := testing.AllocsPerRun(50, trial)
	t.Logf("presample host trial allocs/op = %v (budget %d)", got, budget)
	if got > budget {
		t.Errorf("presample host trial allocs/op = %v, budget %d: are the samples' scratches returned to the pool?", got, budget)
	}
}
