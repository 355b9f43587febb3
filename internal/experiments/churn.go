package experiments

// The CHURN-*/EXT-contention family: epoch-driven scenario workloads. Where
// every Figure 1 experiment runs one immutable network and one problem
// instance to completion, these stress the engine's scenario layer — the
// topology changes underneath a running execution (node departures and
// rejoins, reliable links demoted to adversarial for an epoch, drift in the
// unreliable fringe), and fresh rumors are injected mid-run so messages
// contend for the channel. Scenarios are generated deterministically from
// fixed seeds and compiled once per sweep point, so every trial shares the
// precompiled revisions and the experiments inherit all the scheduler's
// invariants: byte-identical output at any worker count and under any
// shard/merge partition.

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "CHURN-broadcast",
		Title:      "Churn: global broadcast across topology epochs",
		PaperClaim: "decay-style broadcast is self-stabilizing under transient node/edge churn; completion survives every epoch schedule",
		Run:        runChurnBroadcast,
	})
	register(Experiment{
		ID:         "CHURN-gossip",
		Title:      "Churn: k-rumor gossip across topology epochs",
		PaperClaim: "TDM gossip tolerates transient departures and demotions; churned completion is bounded by a small factor over static",
		Run:        runChurnGossip,
	})
	register(Experiment{
		ID:         "EXT-contention",
		Title:      "Extension: multi-message contention via staggered rumor injection",
		PaperClaim: "per-rumor sojourn under TDM grows with the number of live rumors; all rumors complete despite contention",
		Run:        runContention,
	})
}

// churnScenario builds the deterministic churn timeline one sweep point
// runs under: every trial of the point shares the compiled revisions.
func churnScenario(net *graph.Dual, seed uint64, gen scenario.GenConfig) ([]radio.Epoch, []radio.Injection, error) {
	sc, err := scenario.Generate(net, bitrand.New(seed), gen)
	if err != nil {
		return nil, nil, err
	}
	epochs, err := sc.Compile()
	if err != nil {
		return nil, nil, err
	}
	return epochs, sc.Injections, nil
}

func runChurnBroadcast(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "CHURN-broadcast",
		Title:      "Global broadcast under epoch churn (decay)",
		PaperClaim: "completes in every trial; churn slows but never stalls dissemination",
		Table:      stats.NewTable("schedule", "n", "epochs", "median", "p90", "solved"),
	}
	trials := cfg.trials()
	sides := []int{5}
	if !cfg.Quick {
		sides = []int{5, 8, 12}
	}
	res.Pass = true
	var ns, churned []float64
	sw := newSweep(cfg)
	for _, side := range sides {
		net := geoGridNet(side, 77)
		n := net.N()
		// Epoch length is a couple of decay sweeps, so the first churn epoch
		// lands well inside the execution (static completion is a few sweeps);
		// every epoch churns nodes and demotes reliable edges, healing one
		// epoch later.
		gen := scenario.GenConfig{
			Epochs:     4,
			EpochLen:   2 * bitrand.LogN(n),
			Leaves:     max(1, n/8),
			Demotions:  max(1, n/8),
			ExtraFlips: 2,
			Protected:  []graph.NodeID{0},
		}
		epochs, _, err := churnScenario(net, 1000+uint64(side), gen)
		if err != nil {
			return nil, err
		}
		for _, sched := range []struct {
			name   string
			epochs []radio.Epoch
		}{
			{"static", nil},
			{"churn", epochs},
		} {
			sched := sched
			sw.point(trials, func(seed uint64) radio.Config {
				c := radio.Config{
					Algorithm: core.DecayGlobal{},
					Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Link:      adversary.RandomLoss{P: 0.5},
					Seed:      seed, MaxRounds: 400 * n,
				}
				if sched.epochs == nil {
					c.Net = net
				} else {
					c.Epochs = sched.epochs
				}
				return c
			}, func(out trialOutcome) {
				if out.Solved < out.Trials {
					res.Pass = false
				}
				res.Table.AddRow(sched.name, n, len(sched.epochs), out.MedianRounds, out.P90,
					fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if sched.name == "churn" {
					ns = append(ns, float64(n))
					churned = append(churned, out.MedianRounds)
				}
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("churned median vs n", ns, churned)
		res.Notes = append(res.Notes,
			"epoch schedule: 4 churn epochs (leaves + demotions, healed one epoch later) and a healing epoch; static rows share seeds with churned rows",
			verdict(res.Pass))
		return res
	})
}

func runChurnGossip(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "CHURN-gossip",
		Title:      "k-rumor gossip under epoch churn (TDM)",
		PaperClaim: "every rumor reaches every node once churn heals; slowdown vs static stays modest",
		Table:      stats.NewTable("schedule", "n", "k", "median", "median/static", "solved"),
	}
	trials := cfg.trials()
	sides := []int{4}
	ks := []int{1, 2}
	if !cfg.Quick {
		sides = []int{4, 6}
		ks = []int{1, 2, 4}
	}
	res.Pass = true
	sw := newSweep(cfg)
	for _, side := range sides {
		net := geoGridNet(side, 21)
		n := net.N()
		for _, k := range ks {
			k := k
			sources := make([]graph.NodeID, k)
			for i := range sources {
				sources[i] = i * (n / k)
			}
			// One epoch ≈ one per-rumor permuted-decay block (k slots per
			// subsequence round), so every trial crosses several churn
			// boundaries before completing.
			gen := scenario.GenConfig{
				Epochs:     3,
				EpochLen:   4 * k * bitrand.LogN(n),
				Leaves:     max(1, n/8),
				Demotions:  max(1, n/8),
				ExtraFlips: 1,
				Protected:  sources,
			}
			epochs, _, err := churnScenario(net, 2000+uint64(100*side+k), gen)
			if err != nil {
				return nil, err
			}
			spec := radio.Spec{Problem: radio.Gossip, Sources: sources}
			var staticMed float64
			for _, sched := range []struct {
				name   string
				epochs []radio.Epoch
			}{
				{"static", nil},
				{"churn", epochs},
			} {
				sched := sched
				sw.point(trials, func(seed uint64) radio.Config {
					c := radio.Config{
						Algorithm: gossip.TDM{},
						Spec:      spec,
						Link:      adversary.RandomLoss{P: 0.5},
						Seed:      seed, MaxRounds: 2000 * n,
					}
					if sched.epochs == nil {
						c.Net = net
					} else {
						c.Epochs = sched.epochs
					}
					return c
				}, func(out trialOutcome) {
					if out.Solved < out.Trials {
						res.Pass = false
					}
					ratio := 1.0
					if sched.name == "churn" {
						// The static sibling's aggregation fired first
						// (declaration order); a zero median means that
						// contract broke, and a silent 0.00 ratio would hide
						// it from the byte-identity tests.
						if staticMed <= 0 {
							panic("experiments: CHURN-gossip churn row aggregated before its static sibling")
						}
						ratio = out.MedianRounds / staticMed
					} else {
						staticMed = out.MedianRounds
					}
					res.Table.AddRow(sched.name, n, k, out.MedianRounds, ratio,
						fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				})
			}
		}
	}
	return sw.finish(func() *Result {
		res.Notes = append(res.Notes,
			"churned rows run the same seeds as their static siblings; median/static is the churn slowdown factor",
			verdict(res.Pass))
		return res
	})
}

// runContention measures multi-message contention on a static network:
// beyond the round-0 rumor, k-1 rumors are injected at staggered rounds, and
// the tracked quantity is per-rumor sojourn — completion round minus
// injection round — as the channel fills up. Tasks record raw
// (rounds, solved, max sojourn) vectors, so sharded merges replay exactly.
func runContention(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "EXT-contention",
		Title:      "Multi-message contention (staggered TDM injections)",
		PaperClaim: "all rumors complete; sojourn reflects time-division across live rumors",
		Table:      stats.NewTable("n", "rumors", "stagger", "median rounds", "median max-sojourn", "solved"),
	}
	trials := cfg.trials()
	if trials < 3 {
		trials = 3
	}
	sizes := []int{32}
	ks := []int{1, 2, 4}
	if !cfg.Quick {
		sizes = []int{32, 64}
		ks = []int{1, 2, 4, 8}
	}
	res.Pass = true
	var kXs, kSoj []float64
	sw := newSweep(cfg)
	for _, n := range sizes {
		d := lazyDualClique(cfg, n)
		for _, k := range ks {
			k := k
			n := n
			stagger := 8 * bitrand.LogN(n)
			spec := radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{0}}
			for j := 1; j < k; j++ {
				spec.Injections = append(spec.Injections, radio.Injection{
					Source: j * (n / (2 * k)),
					Round:  j * stagger,
				})
			}
			maxRounds := 4000 * n
			base := cfg.BaseSeed
			sw.tasks(trials, func(i int) ([]float64, error) {
				r, err := radio.Run(radio.Config{
					Net:       d(),
					Algorithm: gossip.TDM{},
					Spec:      spec,
					Link:      adversary.RandomLoss{P: 0.5},
					Seed:      base + uint64(i) + 1,
					MaxRounds: maxRounds, UseCliqueCover: true,
				})
				if err != nil {
					return nil, err
				}
				maxSoj := 0.0
				for idx, done := range r.RumorDoneAt {
					soj := maxRounds - r.RumorStartAt[idx] // censored sojourn
					if done >= 0 {
						soj = done - r.RumorStartAt[idx]
					}
					if float64(soj) > maxSoj {
						maxSoj = float64(soj)
					}
				}
				return []float64{float64(r.Rounds), boolBit(r.Solved), maxSoj}, nil
			}, func(recs []taskRecord) error {
				out, err := aggregateTrials(recs)
				if err != nil {
					return err
				}
				soj := make([]float64, len(recs))
				for i, rec := range recs {
					soj[i] = rec.val(2)
				}
				medSoj := stats.Summarize(soj).Median
				if out.Solved < out.Trials {
					res.Pass = false
				}
				res.Table.AddRow(n, k, stagger, out.MedianRounds, medSoj,
					fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if n == sizes[len(sizes)-1] {
					kXs = append(kXs, float64(k))
					kSoj = append(kSoj, medSoj)
				}
				return nil
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("max sojourn vs rumors (largest n)", kXs, kSoj)
		if len(kSoj) > 1 && kSoj[len(kSoj)-1] <= kSoj[0] {
			// Time-division alone forces sojourn up with contention; a flat or
			// falling curve means injections are not actually contending.
			res.Pass = false
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("sojourn(k=%d)/sojourn(k=1) = %.2f under staggered injection (time-division predicts growth ≈ k)",
				int(kXs[len(kXs)-1]), kSoj[len(kSoj)-1]/max(kSoj[0], 1)),
			verdict(res.Pass))
		return res
	})
}
