package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "EXT-gossip",
		Title:      "Extension: k-rumor spreading in the oblivious dual graph model",
		PaperClaim: "future work per the paper's conclusion; TDM permuted decay predicts ~k·(D·logn+log²n) rounds",
		Run:        runGossipExt,
	})
	register(Experiment{
		ID:         "EXT-leader",
		Title:      "Extension: leader election in the dual graph model",
		PaperClaim: "future work per the paper's conclusion; decay-relayed max dissemination",
		Run:        runLeaderExt,
	})
}

func runGossipExt(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "EXT-gossip",
		Title:      "k-rumor spreading (TDM permuted decay)",
		PaperClaim: "rounds scale ~linearly in k at fixed n; polylog in n at fixed k",
		Table:      stats.NewTable("n", "k", "median", "median/k", "solved"),
	}
	sizes := []int{64}
	ks := []int{1, 2, 4}
	if !cfg.Quick {
		sizes = []int{64, 256}
		ks = []int{1, 2, 4, 8}
	}
	trials := cfg.trials()
	if trials < 8 {
		trials = 8
	}
	var kXs, kTs []float64
	sw := newSweep(cfg)
	for _, n := range sizes {
		d, _ := graph.DualClique(n, 3)
		for _, k := range ks {
			sources := make([]graph.NodeID, k)
			for i := range sources {
				sources[i] = i * (n / (2 * k))
			}
			sw.point(trials, func(seed uint64) radio.Config {
				return radio.Config{
					Net:       d,
					Algorithm: gossip.TDM{},
					Spec:      radio.Spec{Problem: radio.Gossip, Sources: sources},
					Link:      adversary.RandomLoss{P: 0.5},
					Seed:      seed, MaxRounds: 4000 * n, UseCliqueCover: true,
				}
			}, func(out trialOutcome) {
				res.Table.AddRow(n, k, out.MedianRounds, out.MedianRounds/float64(k),
					fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if n == sizes[len(sizes)-1] {
					kXs = append(kXs, float64(k))
					kTs = append(kTs, out.MedianRounds)
				}
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("rounds vs k (largest n)", kXs, kTs)
		fit := stats.GrowthExponent(kXs, kTs)
		res.Notes = append(res.Notes,
			fmt.Sprintf("T ~ k^%.2f (R²=%.2f) at fixed n; time-division predicts ≈ k, plus a ln k factor because completion is the max over k independent per-rumor coupon times", fit.Slope, fit.R2))
		res.Pass = fit.Slope > 0.6 && fit.Slope < 1.8
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func runLeaderExt(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "EXT-leader",
		Title:      "Leader election (decay-relayed max dissemination)",
		PaperClaim: "completes w.h.p.; cost is topology-dependent: Θ(n) on the dual clique (the first informative solo-round needs the leader itself), sub-linear on geographic graphs with local contention",
		Table:      stats.NewTable("topology", "n", "median", "p90", "solved"),
	}
	trials := cfg.trials()
	if trials < 5 {
		trials = 5
	}
	alg := gossip.LeaderElect{RankSeed: 77}
	res.Pass = true

	// Dual clique: global contention. With everyone on the same decay
	// sweep, useful rounds have one transmitter network-wide, and the
	// leader's claim starts spreading only when the leader itself is that
	// transmitter — a 1/n event: expect ~linear growth.
	dcSizes := []int{64, 256}
	if !cfg.Quick {
		dcSizes = []int{64, 256, 1024}
	}
	sw := newSweep(cfg)
	var dcNs, dcTs []float64
	for _, n := range dcSizes {
		d, _ := graph.DualClique(n, 3)
		leader := alg.Leader(n)
		sw.point(trials, func(seed uint64) radio.Config {
			return radio.Config{
				Net:       d,
				Algorithm: alg,
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: leader},
				Link:      adversary.RandomLoss{P: 0.5},
				Seed:      seed, MaxRounds: 400 * n, UseCliqueCover: true,
			}
		}, func(out trialOutcome) {
			if out.Solved < out.Trials {
				res.Pass = false
			}
			res.Table.AddRow("dual-clique", n, out.MedianRounds, out.P90, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
			dcNs = append(dcNs, float64(n))
			dcTs = append(dcTs, out.MedianRounds)
		})
	}

	// Geographic grids: local contention, hop-by-hop spread; expect clearly
	// sub-linear growth (roughly diameter·polylog ≈ √n·polylog).
	sides := []int{8, 16}
	if !cfg.Quick {
		sides = []int{8, 12, 16, 24}
	}
	var geoNs, geoTs []float64
	for _, side := range sides {
		net := geoGridNet(side, 21)
		n := net.N()
		leader := alg.Leader(n)
		sw.point(trials, func(seed uint64) radio.Config {
			return radio.Config{
				Net:       net,
				Algorithm: alg,
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: leader},
				Link:      adversary.RandomLoss{P: 0.5},
				Seed:      seed, MaxRounds: 400 * n,
			}
		}, func(out trialOutcome) {
			if out.Solved < out.Trials {
				res.Pass = false
			}
			res.Table.AddRow("geo-grid", n, out.MedianRounds, out.P90, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
			geoNs = append(geoNs, float64(n))
			geoTs = append(geoTs, out.MedianRounds)
		})
	}
	return sw.finish(func() *Result {
		res.addSeries("dual clique", dcNs, dcTs)
		res.addSeries("geo grid", geoNs, geoTs)
		dcFit := stats.GrowthExponent(dcNs, dcTs)
		geoFit := stats.GrowthExponent(geoNs, geoTs)
		res.Notes = append(res.Notes,
			fmt.Sprintf("dual clique: T ~ n^%.2f (R²=%.2f) — the predicted ~linear global-contention regime", dcFit.Slope, dcFit.R2),
			fmt.Sprintf("geo grid: T ~ n^%.2f (R²=%.2f) — hop-by-hop spread, predicted sub-linear", geoFit.Slope, geoFit.R2))
		if dcFit.Slope < 0.6 || dcFit.Slope > 1.8 {
			res.Pass = false
		}
		if geoFit.Slope >= 0.9 || geoFit.Slope >= dcFit.Slope-0.2 {
			res.Pass = false
		}
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}
