package runsvc

import (
	"repro/internal/experiments"
	"repro/internal/shard"
)

// CatalogEntry is one experiment's machine-readable registry row: identity,
// claim, and the sweep shape (task count per configuration) the plan
// enumerates. `dgbench -list -json` and dgserved's /v1/experiments both emit
// exactly this.
type CatalogEntry struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	PaperClaim string `json:"paperClaim"`
	// Tasks is the number of (sweep-point × trial) tasks the experiment
	// declares under the queried configuration.
	Tasks int `json:"tasks"`
	// Trials is the effective per-point trial count of that configuration.
	Trials int `json:"trials"`
	// Quick reports which scale the counts describe.
	Quick bool `json:"quick"`
}

// Catalog enumerates the machine-readable registry under cfg: one entry per
// experiment, with task counts from the deterministic plan.
func Catalog(cfg experiments.Config, exps []experiments.Experiment) ([]CatalogEntry, error) {
	plan, err := experiments.PlanTasks(cfg, exps)
	if err != nil {
		return nil, err
	}
	return catalogEntries(cfg, exps, plan), nil
}

// CatalogEntries enumerates the service's registry at one scale and trial
// count: the configuration is normalized as a submission's is, and the task
// counts are read through the plan memo, so only the first call at a
// configuration runs declaration code.
func (s *Service) CatalogEntries(full bool, trials int) ([]CatalogEntry, error) {
	rs, err := resolveSpec(Spec{Full: full, Trials: trials}, s.catalog)
	if err != nil {
		return nil, err
	}
	plan, err := s.planFor(rs)
	if err != nil {
		return nil, err
	}
	return catalogEntries(rs.cfg, rs.exps, plan), nil
}

// catalogEntries pairs each experiment with its plan row.
func catalogEntries(cfg experiments.Config, exps []experiments.Experiment, plan []shard.ExperimentPlan) []CatalogEntry {
	out := make([]CatalogEntry, len(exps))
	for i, e := range exps {
		out[i] = CatalogEntry{
			ID:         e.ID,
			Title:      e.Title,
			PaperClaim: e.PaperClaim,
			Tasks:      plan[i].Tasks,
			Trials:     cfg.EffectiveTrials(),
			Quick:      cfg.Quick,
		}
	}
	return out
}
