package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "ABL-permutation",
		Title:      "Ablation: permutation bits (decay vs permuted decay, oblivious adversary)",
		PaperClaim: "runtime randomness in the schedule is what defeats the oblivious adversary (§4.1)",
		Run:        runPermutationAblation,
	})
	register(Experiment{
		ID:         "ABL-seeds",
		Title:      "Ablation: shared seeds in geographic local broadcast",
		PaperClaim: "seed dissemination provides the local coordination of §4.3",
		Run:        runSeedAblation,
	})
}

func runPermutationAblation(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "ABL-permutation",
		Title:      "Permutation-bit ablation",
		PaperClaim: "permuted decay beats the sampling adversary; plain decay does not",
		Table:      stats.NewTable("algorithm", "n", "median", "p90", "solved"),
	}
	n := 1024
	if !cfg.Quick {
		n = 2048
	}
	d := lazyDualClique(cfg, n)
	medians := map[string]float64{}
	sw := newSweep(cfg)
	for _, alg := range []radio.Algorithm{core.PermutedGlobal{}, core.DecayGlobal{}} {
		sw.point(cfg.trials(), func(seed uint64) radio.Config {
			return radio.Config{
				Net: d(), Algorithm: alg,
				Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
				Link: adversary.Presample{C: 1, Horizon: 4 * n},
				Seed: seed, MaxRounds: 400 * n, UseCliqueCover: true,
			}
		}, func(out trialOutcome) {
			medians[alg.Name()] = out.MedianRounds
			res.Table.AddRow(alg.Name(), n, out.MedianRounds, out.P90, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
		})
	}
	return sw.finish(func() *Result {
		ratio := medians["decay-global"] / medians["permuted-global"]
		res.Notes = append(res.Notes, fmt.Sprintf("plain decay / permuted decay = %.2fx at n=%d (higher = permutation bits matter more)", ratio, n))
		res.Pass = ratio > 1.1
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func runSeedAblation(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "ABL-seeds",
		Title:      "Seed-sharing ablation",
		PaperClaim: "shared seeds coordinate nearby broadcasters (§4.3)",
		Table:      stats.NewTable("algorithm", "n", "Δ", "median", "p90", "solved"),
	}
	side := 8
	if !cfg.Quick {
		side = 12
	}
	net := geoGridNet(side, 31)
	n := net.N()
	delta := net.MaxDegree()
	// Dense broadcaster set: all nodes broadcast, maximizing contention so
	// coordination has something to do.
	b := make([]graph.NodeID, n)
	for u := range b {
		b[u] = u
	}
	medians := map[string]float64{}
	solvedAll := true
	var seededMedian float64
	sw := newSweep(cfg)
	for _, alg := range []radio.Algorithm{
		core.GeoLocal{},
		core.GeoLocal{DisableSeedSharing: true},
		core.PermutedLocalUncoordinated{},
	} {
		sw.point(cfg.trials(), func(seed uint64) radio.Config {
			return radio.Config{
				Net: net, Algorithm: alg,
				Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: b},
				Link: adversary.RandomLoss{P: 0.5},
				Seed: seed, MaxRounds: 1000 * n,
			}
		}, func(out trialOutcome) {
			medians[alg.Name()] = out.MedianRounds
			if alg.Name() == "geo-local" {
				seededMedian = out.MedianRounds
				if out.Solved < out.Trials {
					solvedAll = false
				}
			}
			res.Table.AddRow(alg.Name(), n, delta, out.MedianRounds, out.P90, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
		})
	}
	return sw.finish(func() *Result {
		ratio := medians["geo-local-noseeds"] / medians["geo-local"]
		res.Notes = append(res.Notes,
			fmt.Sprintf("no-seed variant / seeded = %.2fx under i.i.d. loss", ratio),
			"note: under benign i.i.d. loss at moderate Δ, independent randomness can even win (diversification); "+
				"the coordination payoff appears under adversarial contention — see F1-oblivious-local-general, where "+
				"the uncoordinated variants stall on the bracelet while the geographic algorithm stays polylog on geo graphs")
		// The normative claim checked here is Theorem 4.6's: the seeded
		// algorithm completes reliably within a polylog-scale budget. The
		// seeded-vs-unseeded ratio is reported, not asserted: its sign is
		// contention-dependent.
		logN := float64(bitrand.LogN(n))
		logD := float64(bitrand.LogN(delta))
		budget := 64 * logN * logN * logD
		res.Pass = solvedAll && seededMedian <= budget
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}
