package experiments

import (
	"fmt"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/hitting"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "L3.2-hitting",
		Title:      "β-hitting game bound (Lemma 3.2)",
		PaperClaim: "no player wins k rounds with probability > k/(β−1)",
		Run:        runHittingBound,
	})
	register(Experiment{
		ID:         "T3.1-reduction",
		Title:      "Broadcast → hitting game reduction (Theorem 3.1)",
		PaperClaim: "P_A wins the β-hitting game in O(f(2β)·log β) rounds",
		Run:        runReduction,
	})
	register(Experiment{
		ID:         "L4.2-permdecay",
		Title:      "Permuted decay delivery probability (Lemma 4.2)",
		PaperClaim: "receiver hears a message w.p. > 1/2 per permuted decay call",
		Run:        runLemma42,
	})
}

func runHittingBound(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "L3.2-hitting",
		Title:      "β-hitting game bound",
		PaperClaim: "win probability ≤ k/(β−1)",
		Table:      stats.NewTable("β", "k", "empirical win rate", "bound k/(β−1)", "within bound"),
	}
	trials := 800
	if !cfg.Quick {
		trials = 4000
	}
	// Each trial draws from its own split-derived stream so plays are
	// independent of scheduling order.
	root := bitrand.New(1000 + cfg.BaseSeed)
	res.Pass = true
	sw := newSweep(cfg)
	for _, beta := range []int{16, 64} {
		for _, k := range []int{beta / 8, beta / 4, beta / 2} {
			sw.tasks(trials, func(trial int) ([]float64, error) {
				rng := root.Split(uint64(beta), uint64(k), uint64(trial))
				target := rng.Intn(beta)
				won := hitting.Play(beta, target, k, &hitting.UniformPlayer{Beta: beta}, rng).Won
				return []float64{boolBit(won)}, nil
			}, func(recs []taskRecord) error {
				wins := 0
				for _, r := range recs {
					if r.val(0) != 0 {
						wins++
					}
				}
				rate := float64(wins) / float64(trials)
				bound := float64(k) / float64(beta-1)
				// Allow sampling noise: 4σ of a Bernoulli(bound) estimate.
				ok := rate <= bound+4*0.5/float64(trials)+4*sqrtApprox(bound*(1-bound)/float64(trials))
				if !ok {
					res.Pass = false
				}
				res.Table.AddRow(beta, k, rate, bound, ok)
				return nil
			})
		}
	}
	return sw.finish(func() *Result {
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations suffice here and avoid importing math for one call.
	g := x
	for i := 0; i < 20; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

func runReduction(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "T3.1-reduction",
		Title:      "Broadcast → hitting game reduction",
		PaperClaim: "P_A wins in O(f(2β)·log β) game rounds",
		Table:      stats.NewTable("algorithm", "β", "won", "median guesses", "median sim rounds", "budget f·logβ"),
	}
	betas := []int{16, 32}
	if !cfg.Quick {
		betas = []int{16, 64, 128}
	}
	trials := cfg.trials()
	res.Pass = true
	sw := newSweep(cfg)
	for _, beta := range betas {
		for _, tc := range []struct {
			alg     radio.Algorithm
			problem radio.Problem
			// budget is the O(f(2β)·log β) allowance: round robin has
			// f(n) = O(n); decay's dual clique time vs this player's own
			// dense/sparse link process is O(n) too at these scales.
			budget int
		}{
			{core.RoundRobin{}, radio.LocalBroadcast, 8 * beta * bitrand.LogN(beta)},
			{core.DecayGlobal{}, radio.GlobalBroadcast, 64 * beta * bitrand.LogN(beta)},
		} {
			// Each play is already independently seeded by its trial index,
			// so plays fan out onto the pool (or across shards) directly.
			sw.tasks(trials, func(trial int) ([]float64, error) {
				player := &hitting.SimulationPlayer{
					Algorithm: tc.alg,
					Beta:      beta,
					Problem:   tc.problem,
					Seed:      cfg.BaseSeed + uint64(trial),
				}
				target := (trial * 7) % beta
				out := hitting.Play(beta, target, 1<<22, player, bitrand.New(uint64(trial)))
				return []float64{boolBit(out.Won), float64(out.Guesses), float64(out.SimRounds)}, nil
			}, func(recs []taskRecord) error {
				won := 0
				var guesses, simRounds []int
				for _, r := range recs {
					if r.val(0) != 0 {
						won++
						guesses = append(guesses, int(r.val(1)))
						simRounds = append(simRounds, int(r.val(2)))
					}
				}
				medG := stats.MedianInts(guesses)
				medS := stats.MedianInts(simRounds)
				res.Table.AddRow(tc.alg.Name(), beta, fmt.Sprintf("%d/%d", won, trials), medG, medS, tc.budget)
				if won < trials || medG > float64(tc.budget) {
					res.Pass = false
				}
				return nil
			})
		}
	}
	return sw.finish(func() *Result {
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func runLemma42(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "L4.2-permdecay",
		Title:      "Permuted decay delivery probability",
		PaperClaim: "receive probability > 1/2 per call (γ=16)",
		Table:      stats.NewTable("|I_G|", "|I_G'|", "grey presence", "receive rate", "above 1/2"),
	}
	trials := 300
	if !cfg.Quick {
		trials = 2000
	}
	// Each trial draws from its own split-derived stream so trials are
	// independent of scheduling order.
	root := bitrand.New(4242 + cfg.BaseSeed)
	n := 1024
	res.Pass = true
	sw := newSweep(cfg)
	for si, shape := range []struct {
		ig, igp  int
		presence float64
	}{
		{1, 0, 0}, {8, 0, 0}, {1, 64, 0.5}, {4, 256, 0.5}, {2, 512, 0.9},
	} {
		sw.tasks(trials, func(trial int) ([]float64, error) {
			src := root.Split(uint64(si), uint64(trial))
			bits := bitrand.NewBitString(src, core.GlobalBitsLen(n, 1))
			sched := core.NewPermSchedule(bits, n, 1)
			got := lemma42Call(src, sched, trial, shape.ig, shape.igp, shape.presence)
			return []float64{boolBit(got)}, nil
		}, func(recs []taskRecord) error {
			success := 0
			for _, r := range recs {
				if r.val(0) != 0 {
					success++
				}
			}
			rate := float64(success) / float64(trials)
			ok := rate > 0.5
			if !ok {
				res.Pass = false
			}
			res.Table.AddRow(shape.ig, shape.igp, shape.presence, rate, ok)
			return nil
		})
	}
	return sw.finish(func() *Result {
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

// lemma42Call runs one permuted decay call of Lemma 4.2's setting and
// reports whether the receiver heard exactly one transmitter in some round.
// Each round, the ig reliable senders flip a coin at the schedule's
// probability p, and so does each of the igp unreliable slots the oblivious
// adversary connects: slot s is present when the top 53 bits of its hash
// fall below presence. All coins come from src in order and share p, so
// only the number of present slots matters, not which ones: the round
// counts them without a branch, then draws ig plus that many coins against
// one threshold. This draws exactly the coins of the slot-by-slot loop: a
// slot's UnitFloat(h) < presence is h>>11 < CoinThreshold(presence), for
// every presence (0 and 1 included), by CoinThreshold's argument, and p =
// 2^-i lies in (0, 1/2], where Coin(p) is CoinBelow(CoinThreshold(p)).
func lemma42Call(src *bitrand.Source, sched *core.PermSchedule, trial, ig, igp int, presence float64) bool {
	present := bitrand.CoinThreshold(presence)
	for r := 0; r < sched.BlockLen(); r++ {
		pre := bitrand.HashPrefix(uint64(trial), uint64(r))
		coins := ig
		for s := 0; s < igp; s++ {
			// Both sides are below 2^54, so the difference's sign bit is
			// the comparison.
			coins += int((bitrand.HashFrom(pre, uint64(s))>>11 - present) >> 63)
		}
		t := bitrand.CoinThreshold(sched.Prob(r))
		tx := 0
		for c := 0; c < coins; c++ {
			if src.CoinBelow(t) {
				tx++
			}
		}
		if tx == 1 {
			return true
		}
	}
	return false
}
