package experiments

// EXT-derand: where does a *deterministic* broadcast land between the static
// upper bounds and the oblivious lower bounds? DerandBroadcast replaces every
// runtime coin with publicly computable structure — the deterministic network
// decomposition of the reliable graph plus a fixed sweep schedule — so a
// sampling-oblivious adversary that presimulates the algorithm predicts it
// *exactly*. The experiment races derand against decay and round-robin on the
// paper's dual clique under the static model, a committed oblivious fringe
// selection, and the presampling adversary, then replays the churn-window
// attack from ADV-churnwindow against all three. The presample row is the
// headline: against derand the presimulation labels exactly the rounds the
// real execution produces (at most one cluster of the active color transmits
// per slot, always below the dense threshold), so the adversary gains nothing
// it could not precompute and derand's presample row matches its static row
// round for round — while decay, whose dense phases the presample schedule
// smothers, visibly degrades. The price of determinism shows in the static
// column: derand pays its full sweep (≈ the largest cluster) per hop where
// decay pays polylog phases.

import (
	"fmt"
	"sync"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "EXT-derand",
		Title:      "Derandomized broadcast vs the adversary grid (network decomposition)",
		PaperClaim: "a zero-coin schedule concedes nothing to presampling or committed oblivious adversaries; randomized decay concedes a visible factor to presampling",
		Run:        runExtDerand,
	})
}

// derandAdvTolerance is the allowed degradation of a derand adversary row
// over its static row: the schedule is deterministic, so the rows should be
// identical up to completion-detection jitter.
const derandAdvTolerance = 1.1

// decayPresampleFactor is the minimum visible degradation of decay's
// presample row over its static row on the dual clique (measured 2.4x at
// n = 96 and 5.3x at n = 192; the gate leaves wide slack for trial-count
// variance).
const decayPresampleFactor = 1.4

func runExtDerand(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "EXT-derand",
		Title:      "Derandomized broadcast vs the adversary grid",
		PaperClaim: "deterministic structure is exactly what an oblivious adversary can presimulate — and exactly why presimulation buys it nothing",
		Table:      stats.NewTable("substrate", "n", "algorithm", "adversary", "median", "p90", "vs static", "solved"),
	}
	trials := cfg.trials()
	// The decay-presample contrast gate compares two medians of a noisy
	// geometric race; the quick trial count (5) is too few for a stable
	// ratio, so the adversary grid always runs at least 15 trials per cell
	// (full-mode width — the cells are small enough that this stays cheap).
	gridTrials := trials
	if gridTrials < 15 {
		gridTrials = 15
	}
	res.Pass = true
	algs := []radio.Algorithm{core.DerandBroadcast{}, core.DecayGlobal{}, core.RoundRobin{}}

	sizes := []int{96}
	if !cfg.Quick {
		sizes = append(sizes, 192)
	}
	var ns, derandRatios, decayRatios []float64
	sw := newSweep(cfg)
	for _, n := range sizes {
		n := n
		// Only the grid's trials read the dual clique and its committed
		// fringe selection: the point's first trial builds both.
		dc := sync.OnceValues(func() (*graph.Dual, graph.EdgeSelector) {
			d, _ := graph.DualClique(n, 3)
			return d, halfFringe(d)
		})
		ns = append(ns, float64(n))
		for _, alg := range algs {
			alg := alg
			// The static row must aggregate before the adversary rows that
			// report ratios against it; declaration order guarantees that.
			var staticMed float64
			for _, adv := range []struct {
				name string
				link func(fringe graph.EdgeSelector) any // nil: no adversary
			}{
				{"static", nil},
				{"oblivious-static", func(fringe graph.EdgeSelector) any { return adversary.Static{Selector: fringe} }},
				{"presample", func(graph.EdgeSelector) any { return adversary.Presample{} }},
			} {
				adv := adv
				sw.point(gridTrials, func(seed uint64) radio.Config {
					d, fringe := dc()
					c := radio.Config{
						Net:       d,
						Algorithm: alg,
						Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
						Seed:      seed,
						MaxRounds: 400 * n,
					}
					if adv.link != nil {
						c.Link = adv.link(fringe)
					}
					return c
				}, func(out trialOutcome) {
					if out.Solved < out.Trials {
						res.Pass = false
					}
					ratio := 1.0
					if adv.name == "static" {
						staticMed = out.MedianRounds
					} else {
						if staticMed <= 0 {
							panic("experiments: EXT-derand adversary row aggregated before its static sibling")
						}
						ratio = out.MedianRounds / staticMed
					}
					switch {
					case alg.Name() == "derand" && adv.name != "static":
						// The headline gate: no adversary in the grid may
						// degrade the deterministic schedule beyond jitter.
						if ratio > derandAdvTolerance {
							res.Pass = false
						}
						if adv.name == "presample" {
							derandRatios = append(derandRatios, ratio)
						}
					case alg.Name() == "decay-global" && adv.name == "presample":
						// The contrast gate: presampling visibly slows decay.
						if ratio < decayPresampleFactor {
							res.Pass = false
						}
						decayRatios = append(decayRatios, ratio)
					}
					res.Table.AddRow("dualclique", n, alg.Name(), adv.name,
						out.MedianRounds, out.P90, fmt.Sprintf("%.2f", ratio),
						fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				})
			}
		}
	}

	// The churn-window replay: the ADV-churnwindow storm scenario (reliable
	// two-clique base, G' = G, transient storm fringe in degraded epochs)
	// against all three algorithms. Derand re-derives its decomposition at
	// every epoch swap (radio.EpochAware), and the aligned offline smother
	// needs two simultaneous transmitters to act — which the decomposition
	// schedule almost never offers it.
	churnN := 64
	storm := lazyStorm(churnN, 3100+uint64(churnN))
	for _, alg := range algs {
		alg := alg
		var noneMed float64
		for _, adv := range []struct {
			name string
			link func(wins []bool) any // nil: no adversary
		}{
			{"static", nil},
			{"churnwindow", func(wins []bool) any { return adversary.ChurnWindowOffline{Windows: wins} }},
		} {
			adv := adv
			sw.point(trials, func(seed uint64) radio.Config {
				epochs, wins := storm()
				c := radio.Config{
					Epochs:    epochs,
					Algorithm: alg,
					Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Seed:      seed,
					MaxRounds: 400 * churnN,
				}
				if adv.link != nil {
					c.Link = adv.link(wins)
				}
				return c
			}, func(out trialOutcome) {
				if out.Solved < out.Trials {
					res.Pass = false
				}
				ratio := 1.0
				if adv.name == "static" {
					noneMed = out.MedianRounds
				} else {
					if noneMed <= 0 {
						panic("experiments: EXT-derand churn row aggregated before its static sibling")
					}
					ratio = out.MedianRounds / noneMed
					if alg.Name() == "derand" && ratio > derandAdvTolerance {
						res.Pass = false
					}
				}
				res.Table.AddRow("twocliques+storms", churnN, alg.Name(), adv.name,
					out.MedianRounds, out.P90, fmt.Sprintf("%.2f", ratio),
					fmt.Sprintf("%d/%d", out.Solved, out.Trials))
			})
		}
	}

	return sw.finish(func() *Result {
		res.addSeries("derand presample/static ratio vs n", ns, derandRatios)
		res.addSeries("decay presample/static ratio vs n", ns, decayRatios)
		if len(derandRatios) > 0 && len(decayRatios) > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"presample/static degradation at the largest n: derand %.2fx, decay %.2fx — presimulating a zero-coin schedule reproduces it; presimulating decay's coins does not",
				derandRatios[len(derandRatios)-1], decayRatios[len(decayRatios)-1]))
		}
		res.Notes = append(res.Notes,
			"derand's static column pays the deterministic sweep (~largest cluster per hop) where decay pays polylog phases: the cost of moving every coin to construction time",
			verdict(res.Pass))
		return res
	})
}
