package experiments

// Sharded execution: the sweep scheduler's work queue — every (experiment ×
// sweep-point × trial) task, independently seeded — partitioned across
// machines with no coordination beyond a shared command line. Every entry
// point calls each experiment's Run exactly once and composes the
// lifecycle's three steps (declare, fill, finish; see scheduler.go):
//
//   - PlanTasks declares and counts. Every process derives the same plan
//     (experiments are sorted by ID, declaration order is code order), so a
//     task's global index — its experiment's plan offset plus its
//     declaration index — is a cross-machine invariant. Shard i of K owns
//     the tasks whose global index ≡ i-1 (mod K): a stable round-robin
//     partition, no hashing of map order anywhere.
//   - ExecuteShard declares, fills only the owned tasks (through this
//     machine's bounded worker pool) and returns their records as a
//     shard.Artifact; it never finishes, because this process holds only a
//     subset of each point's records.
//   - RunMerged declares, fills each declaration with the validated union
//     of every shard's records, and finishes it — the same aggregation and
//     build an unsharded run performs after its pool drains. Because
//     aggregation consumes raw task records either way, merged output is
//     byte-identical to a single-machine run at the same seeds, for any K
//     and any assignment.

import (
	"errors"
	"fmt"

	"repro/internal/shard"
)

// declareAll declares every experiment, in order, failing on the first
// declaration error.
func declareAll(cfg Config, exps []Experiment) ([]declaration, error) {
	cfg.duals = dualCliques{}
	ds := make([]declaration, len(exps))
	for i, e := range exps {
		var err error
		if ds[i], err = declare(cfg, e); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// planOf is the task plan of a plan-ordered declaration slice.
func planOf(exps []Experiment, ds []declaration) []shard.ExperimentPlan {
	plan := make([]shard.ExperimentPlan, len(exps))
	for i, e := range exps {
		plan[i] = shard.ExperimentPlan{ID: e.ID, Tasks: len(ds[i].sw.jobs)}
	}
	return plan
}

// PlanTasks deterministically enumerates the task plan: how many
// (sweep-point × trial) tasks each experiment declares under cfg, in
// experiment order. Every machine running the same binary at the same
// configuration derives the same plan — it is the shard partition's shared
// frame of reference, and execute embeds it into each artifact so merge can
// verify the shards actually tile it.
func PlanTasks(cfg Config, exps []Experiment) ([]shard.ExperimentPlan, error) {
	ds, err := declareAll(cfg, exps)
	if err != nil {
		return nil, err
	}
	return planOf(exps, ds), nil
}

// ExecuteShard runs shard index (1-based) of count: it declares the
// selection once, executes only the tasks this shard owns — through one
// shared worker pool sized by cfg, exactly like RunAll — and returns their
// raw records as a portable artifact. Aggregation is deferred to the merge;
// trial failures are recorded in the artifact rather than aborting, so a
// long distributed run surfaces them at merge time instead of losing the
// machine's whole shard.
func ExecuteShard(cfg Config, exps []Experiment, index, count int) (*shard.Artifact, error) {
	if count < 1 || index < 1 || index > count {
		return nil, fmt.Errorf("experiments: shard %d/%d out of range", index, count)
	}
	ds, err := declareAll(cfg, exps)
	if err != nil {
		return nil, err
	}
	own := func(g int) bool { return g%count == index-1 }
	fill(cfg.workers(), ds, own)
	var records []shard.TaskRecord
	g := 0
	for i, d := range ds {
		for t, r := range d.sw.recs {
			if own(g) {
				records = append(records, shard.TaskRecord{Exp: exps[i].ID, Index: t, Vals: r.vals, Err: r.errText()})
			}
			g++
		}
	}
	return &shard.Artifact{
		Version:  shard.SchemaVersion,
		Shard:    index,
		Shards:   count,
		BaseSeed: cfg.BaseSeed,
		Quick:    cfg.Quick,
		Trials:   cfg.Trials,
		Plan:     planOf(exps, ds),
		Records:  records,
	}, nil
}

// RunMerged replays every experiment over the reassembled task records of a
// validated merge: no trial executes, the aggregation closures consume the
// loaded records on one goroutine in declaration order, and the experiments
// build their tables, notes, and series exactly as an unsharded run would.
// cfg must be the merged run's configuration (ConfigFromMerged); results and
// errors are aligned with exps.
func RunMerged(cfg Config, exps []Experiment, m *shard.Merged) ([]*Result, []error) {
	cfg.duals = dualCliques{}
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	for i, e := range exps {
		d, err := declare(cfg, e)
		if err == nil {
			err = d.inject(e.ID, m.Records(e.ID))
		}
		if err == nil {
			results[i], err = d.finish()
		}
		errs[i] = err
	}
	return results, errs
}

// inject fills the declaration's records from a merge. The replay must
// consume the experiment's merged records exactly: a count mismatch — this
// binary declares a sweep point the artifacts lack, or dropped one they
// still carry — would replay records against the wrong (point, trial)
// pairs, so it is a hard error.
func (d declaration) inject(id string, recs []shard.TaskRecord) error {
	if len(recs) != len(d.sw.recs) {
		return fmt.Errorf("experiments: %s declares %d tasks but the merged artifacts planned %d — artifacts from a different binary or configuration?",
			id, len(d.sw.recs), len(recs))
	}
	for g, r := range recs {
		// Every executed task records values or an error; a record with
		// neither is a truncated or hand-edited artifact, and replaying it
		// would silently report zeros.
		if r.Err == "" && len(r.Vals) == 0 {
			return fmt.Errorf("experiments: %s task %d has neither values nor an error — truncated artifact?", id, g)
		}
		var err error
		if r.Err != "" {
			err = errors.New(r.Err)
		}
		d.sw.recs[g] = taskRecord{vals: r.Vals, err: err}
	}
	return nil
}

// ConfigFromMerged rebuilds the run configuration a set of merged shards
// executed with, so the merge process replays the very declarations the
// shards enumerated rather than trusting the invoker to repeat the flags.
func ConfigFromMerged(m *shard.Merged) Config {
	return Config{Quick: m.Quick, Trials: m.Trials, BaseSeed: m.BaseSeed}
}

// MergedExperiments resolves a merged plan back to registered experiments,
// in plan order. An unknown ID means the artifacts were produced by a
// different binary version.
func MergedExperiments(m *shard.Merged) ([]Experiment, error) {
	exps := make([]Experiment, len(m.Plan))
	for i, p := range m.Plan {
		e, ok := ByID(p.ID)
		if !ok {
			return nil, fmt.Errorf("experiments: merged artifacts plan unknown experiment %q (artifact from a different binary version?)", p.ID)
		}
		exps[i] = e
	}
	return exps, nil
}
