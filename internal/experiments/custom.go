package experiments

// CustomChurn builds experiments from serialized scenario specs: the run
// service accepts a scenario.GenConfig over the wire and turns it into one
// unregistered experiment here, reusing the CHURN-broadcast machinery (geo
// grid base, static-vs-churned rows sharing seeds, decay broadcast) with the
// caller's churn timeline instead of the hardcoded one. The experiment is
// deliberately not in the registry — its identity lives in the submitted
// spec, and the caller bakes a content hash of that spec into the ID so the
// result cache keys distinct scenarios apart.

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// CustomChurn returns a runnable experiment executing global decay broadcast
// on a side×side geographic grid under the given churn timeline, alongside a
// static row sharing the same trial seeds. The id must be unique per distinct
// (side, scenarioSeed, gen) triple — callers derive it from a hash of the
// spec. The scenario is broadcast-only: gen.InjectSources is rejected, since
// injections only exist for gossip workloads.
func CustomChurn(id string, side int, scenarioSeed uint64, gen scenario.GenConfig) Experiment {
	return Experiment{
		ID:         id,
		Title:      fmt.Sprintf("Custom churn: decay broadcast on a %d×%d geographic grid", side, side),
		PaperClaim: "decay-style broadcast is self-stabilizing under the submitted epoch schedule",
		Run: func(cfg Config) (*Result, error) {
			return runCustomChurn(cfg, id, side, scenarioSeed, gen)
		},
	}
}

func runCustomChurn(cfg Config, id string, side int, scenarioSeed uint64, gen scenario.GenConfig) (*Result, error) {
	if len(gen.InjectSources) > 0 {
		return nil, fmt.Errorf("experiments: custom churn runs global broadcast only; InjectSources is not supported")
	}
	if side < 2 {
		return nil, fmt.Errorf("experiments: custom churn grid side %d, need at least 2", side)
	}
	net := geoGridNet(side, 77)
	n := net.N()
	// The source must survive every epoch or broadcast can never complete;
	// force-protect it rather than making every spec author remember to.
	gen.Protected = append(append([]graph.NodeID(nil), gen.Protected...), 0)
	epochs, _, err := churnScenario(net, scenarioSeed, gen)
	if err != nil {
		return nil, err
	}
	maxRounds := gen.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 400 * n
	}
	res := &Result{
		ID:         id,
		Title:      fmt.Sprintf("Custom churn: decay broadcast, %d×%d geo grid (scenario seed %d)", side, side, scenarioSeed),
		PaperClaim: "completes in every trial; churn slows but never stalls dissemination",
		Table:      stats.NewTable("schedule", "n", "epochs", "median", "p90", "solved"),
	}
	res.Pass = true
	trials := cfg.trials()
	sw := newSweep(cfg)
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
				Seed:      seed, MaxRounds: maxRounds,
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
		})
	}
	return sw.finish(func() *Result {
		res.Notes = append(res.Notes,
			fmt.Sprintf("submitted schedule: %d churn epochs of %d rounds (+healing); static rows share seeds with churned rows",
				gen.Epochs, gen.EpochLen),
			verdict(res.Pass))
		return res
	})
}
