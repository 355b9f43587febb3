package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "F1-offline-global",
		Title:      "Global broadcast vs offline adaptive adversary (dual clique)",
		PaperClaim: "Ω(n) / O(n·log²n) [Figure 1 row 1]",
		Run: func(cfg Config) (*Result, error) {
			return runDualCliqueScaling(cfg, "F1-offline-global", "Ω(n) / O(n·log²n)",
				radio.GlobalBroadcast, adversary.Jam{}, offlineSizes(cfg), 0.5)
		},
	})
	register(Experiment{
		ID:         "F1-offline-local",
		Title:      "Local broadcast vs offline adaptive adversary (dual clique)",
		PaperClaim: "Ω(n) / O(n·log n) [Figure 1 row 1]",
		Run: func(cfg Config) (*Result, error) {
			return runDualCliqueScaling(cfg, "F1-offline-local", "Ω(n) / O(n·log n)",
				radio.LocalBroadcast, adversary.Jam{}, offlineSizes(cfg), 0.45)
		},
	})
	register(Experiment{
		ID:         "F1-online-global",
		Title:      "Global broadcast vs online adaptive adversary (dual clique)",
		PaperClaim: "Ω(n/log n) [Theorem 3.1]",
		Run: func(cfg Config) (*Result, error) {
			return runDualCliqueScaling(cfg, "F1-online-global", "Ω(n/log n)",
				radio.GlobalBroadcast, adversary.DenseSparse{C: 1}, onlineSizes(cfg), 0.5)
		},
	})
	register(Experiment{
		ID:         "F1-online-local",
		Title:      "Local broadcast vs online adaptive adversary (dual clique)",
		PaperClaim: "Ω(n/log n) [Theorem 3.1]",
		Run: func(cfg Config) (*Result, error) {
			return runDualCliqueScaling(cfg, "F1-online-local", "Ω(n/log n)",
				radio.LocalBroadcast, adversary.DenseSparse{C: 1}, onlineSizes(cfg), 0.5)
		},
	})
	register(Experiment{
		ID:         "F1-oblivious-global",
		Title:      "Global broadcast vs oblivious adversaries (dual clique)",
		PaperClaim: "O(D·log n + log²n) via permuted decay [Theorem 4.1]",
		Run:        runObliviousGlobal,
	})
}

func offlineSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{64, 256}
	}
	return []int{64, 256, 1024}
}

func onlineSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{128, 512}
	}
	return []int{256, 1024, 4096}
}

// dualCliqueSpec builds the problem instance used throughout the dual clique
// experiments: global broadcast from a non-bridge source in A, or local
// broadcast with B = A (as in the Theorem 3.1 proof).
func dualCliqueSpec(problem radio.Problem, m graph.DualCliqueMarkers) radio.Spec {
	if problem == radio.GlobalBroadcast {
		return radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	}
	b := make([]graph.NodeID, m.SizeA)
	for i := range b {
		b[i] = i
	}
	return radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: b}
}

// dualCliqueAlg picks the natural algorithm for a problem.
func dualCliqueAlg(problem radio.Problem) radio.Algorithm {
	if problem == radio.GlobalBroadcast {
		return core.DecayGlobal{}
	}
	return core.DecayLocal{}
}

// runDualCliqueScaling measures the round complexity of decay-style
// broadcast on the dual clique against the given adversary over an n-sweep
// and fits the growth exponent; the lower-bound rows of Figure 1 predict
// near-linear growth (exponent well above the polylog regime).
func runDualCliqueScaling(cfg Config, id, claim string, problem radio.Problem, link any, sizes []int, minExp float64) (*Result, error) {
	title := "Global broadcast on the dual clique"
	if problem == radio.LocalBroadcast {
		title = "Local broadcast on the dual clique"
	}
	res := &Result{
		ID:         id,
		Title:      title,
		PaperClaim: claim,
		Table:      stats.NewTable("algorithm", "n", "median", "p90", "median/n", "solved"),
	}
	var ns, ts []float64
	sw := newSweep(cfg)
	for _, n := range sizes {
		d, m := graph.DualClique(n, 3)
		spec := dualCliqueSpec(problem, m)
		alg := dualCliqueAlg(problem)
		sw.point(cfg.trials(), func(seed uint64) radio.Config {
			return radio.Config{
				Net: d, Algorithm: alg, Spec: spec, Link: link,
				Seed: seed, MaxRounds: 400 * n, UseCliqueCover: true,
			}
		}, func(out trialOutcome) {
			res.Table.AddRow(alg.Name(), n, out.MedianRounds, out.P90, out.MedianRounds/float64(n),
				fmt.Sprintf("%d/%d", out.Solved, out.Trials))
			ns = append(ns, float64(n))
			ts = append(ts, out.MedianRounds)
		})
	}
	return sw.finish(func() *Result {
		res.addSeries("median rounds", ns, ts)
		fit := stats.GrowthExponent(ns, ts)
		res.Notes = append(res.Notes, fmt.Sprintf("T ~ n^%.2f (R²=%.2f); lower bound predicts near-linear growth (exponent ≥ %.2f at these sizes)", fit.Slope, fit.R2, minExp))
		res.Pass = fit.Slope >= minExp
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func runObliviousGlobal(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "F1-oblivious-global",
		Title:      "Global broadcast vs oblivious adversaries (dual clique)",
		PaperClaim: "O(D·log n + log²n) via permuted decay",
		Table:      stats.NewTable("algorithm", "adversary", "n", "median", "p90", "solved"),
	}
	sizes := []int{256, 1024}
	if !cfg.Quick {
		sizes = []int{256, 1024, 2048}
	}
	type key struct {
		alg, adv string
		n        int
	}
	medians := map[key]float64{}
	var permNs, permTs []float64
	sw := newSweep(cfg)
	for _, n := range sizes {
		d, _ := graph.DualClique(n, 3)
		links := map[string]any{
			"presample":   adversary.Presample{C: 1, Horizon: 4 * n},
			"random-loss": adversary.RandomLoss{P: 0.5},
		}
		for _, advName := range sortedKeys(links) {
			link := links[advName]
			for _, alg := range []radio.Algorithm{core.PermutedGlobal{}, core.DecayGlobal{}} {
				sw.point(cfg.trials(), func(seed uint64) radio.Config {
					return radio.Config{
						Net: d, Algorithm: alg,
						Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
						Link: link, Seed: seed, MaxRounds: 400 * n, UseCliqueCover: true,
					}
				}, func(out trialOutcome) {
					res.Table.AddRow(alg.Name(), advName, n, out.MedianRounds, out.P90,
						fmt.Sprintf("%d/%d", out.Solved, out.Trials))
					medians[key{alg.Name(), advName, n}] = out.MedianRounds
					if alg.Name() == "permuted-global" && advName == "presample" {
						permNs = append(permNs, float64(n))
						permTs = append(permTs, out.MedianRounds)
					}
				})
			}
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("permuted-global vs presample", permNs, permTs)
		fit := stats.GrowthExponent(permNs, permTs)
		nMax := sizes[len(sizes)-1]
		sep := medians[key{"decay-global", "presample", nMax}] / medians[key{"permuted-global", "presample", nMax}]
		res.Notes = append(res.Notes,
			fmt.Sprintf("permuted decay vs presample: T ~ n^%.2f (R²=%.2f); upper bound predicts polylog growth", fit.Slope, fit.R2),
			fmt.Sprintf("at n=%d, plain decay is %.2fx slower than permuted decay against the sampling adversary (the permutation-bit defense)", nMax, sep))
		res.Pass = fit.Slope < 0.5 && sep > 1.1
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}
