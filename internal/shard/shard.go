// Package shard defines the portable artifact that lets the experiment
// suite run split across machines.
//
// The sweep scheduler's work queue — every (experiment × sweep-point ×
// trial) task, independently seeded — is partitioned deterministically into
// K shards by stable task index. Each executing process runs only the tasks
// it owns and serializes their raw results as an Artifact (a versioned JSON
// file); a merge process validates that the artifacts tile the plan exactly
// — same schema version, same header, every shard present exactly once,
// every task index covered exactly once — and replays the aggregation over
// the reassembled records. Because each task's record is the task's complete
// contribution, the merged output is byte-identical to a single-machine run
// at the same seeds.
//
// The lifecycle is driven from internal/experiments (PlanTasks,
// ExecuteShard, RunMerged) and exposed on the command line as
// `dgbench -shard i/K -out shard_i.json` followed by
// `dgbench -merge 'shard_*.json'`. This package holds only the artifact
// schema, its reader/writer, and merge validation; it knows nothing about
// radio networks or experiments.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
)

// SchemaVersion is the artifact format version. Merging artifacts written
// by a different version is a hard error: records are only comparable when
// both sides agree on what a task's values mean.
const SchemaVersion = 1

// Validation errors returned by Merge and Artifact.Validate, exposed for
// errors.Is so callers can tell operator mistakes apart.
var (
	ErrVersion        = errors.New("shard: schema version mismatch")
	ErrHeaderMismatch = errors.New("shard: artifact headers disagree")
	ErrDuplicateShard = errors.New("shard: duplicate shard index")
	ErrMissingShard   = errors.New("shard: missing shard")
	ErrDuplicateTask  = errors.New("shard: task index covered twice")
	ErrMissingTask    = errors.New("shard: task index not covered by any shard")
	ErrMalformed      = errors.New("shard: malformed artifact")
)

// ExperimentPlan is one experiment's row of the task plan: how many tasks
// the experiment declares at the configuration the shard ran with. The plan
// is ordered (experiments sorted by ID, matching experiments.All()), and a
// task's global index is its experiment's plan offset plus its declaration
// index, so every process derives the same partition with no communication.
type ExperimentPlan struct {
	ID    string `json:"id"`
	Tasks int    `json:"tasks"`
}

// TaskRecord is one task's serialized result: the experiment it belongs to,
// its declaration index within that experiment, the task's raw values (for
// engine trials: executed rounds and a solved bit; lemma checks store their
// own small vectors), and the error message if the task failed. Values
// round-trip exactly through JSON (Go emits the shortest representation
// that parses back to the same float64), which is what makes merged
// summaries bit-identical to in-process ones.
type TaskRecord struct {
	Exp   string    `json:"exp"`
	Index int       `json:"index"`
	Vals  []float64 `json:"vals,omitempty"`
	Err   string    `json:"err,omitempty"`
}

// Artifact is one shard's complete output: the run header (everything that
// determines the task plan), the plan itself, and the records of every task
// the shard owns.
type Artifact struct {
	Version int `json:"version"`
	// Shard is 1-based: shard i of Shards, matching `dgbench -shard i/K`.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// BaseSeed, Quick, and Trials reproduce the experiments.Config the shard
	// executed with; merge rebuilds its config from these rather than
	// trusting the invoker to repeat the flags.
	BaseSeed uint64           `json:"baseSeed"`
	Quick    bool             `json:"quick"`
	Trials   int              `json:"trials"`
	Plan     []ExperimentPlan `json:"plan"`
	Records  []TaskRecord     `json:"records"`
}

// Validate checks an artifact's internal consistency: schema version, shard
// bounds, and that every record names a planned experiment with an in-range
// task index.
func (a *Artifact) Validate() error {
	if a.Version != SchemaVersion {
		return fmt.Errorf("%w: artifact has version %d, this binary reads %d", ErrVersion, a.Version, SchemaVersion)
	}
	if a.Shards < 1 || a.Shard < 1 || a.Shard > a.Shards {
		return fmt.Errorf("%w: shard %d of %d", ErrMalformed, a.Shard, a.Shards)
	}
	tasks := make(map[string]int, len(a.Plan))
	for _, p := range a.Plan {
		if _, dup := tasks[p.ID]; dup {
			return fmt.Errorf("%w: experiment %q planned twice", ErrMalformed, p.ID)
		}
		if p.Tasks < 0 {
			return fmt.Errorf("%w: experiment %q plans %d tasks", ErrMalformed, p.ID, p.Tasks)
		}
		tasks[p.ID] = p.Tasks
	}
	for _, r := range a.Records {
		n, ok := tasks[r.Exp]
		if !ok {
			return fmt.Errorf("%w: record for unplanned experiment %q", ErrMalformed, r.Exp)
		}
		if r.Index < 0 || r.Index >= n {
			return fmt.Errorf("%w: %s task %d out of range [0,%d)", ErrMalformed, r.Exp, r.Index, n)
		}
	}
	return nil
}

// Write serializes the artifact to path as indented JSON with records
// sorted by (plan order, task index), so equal runs produce byte-identical
// files.
func Write(path string, a *Artifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	order := make(map[string]int, len(a.Plan))
	for i, p := range a.Plan {
		order[p.ID] = i
	}
	sort.Slice(a.Records, func(i, j int) bool {
		ri, rj := a.Records[i], a.Records[j]
		if ri.Exp != rj.Exp {
			return order[ri.Exp] < order[rj.Exp]
		}
		return ri.Index < rj.Index
	})
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads and validates one artifact.
func Read(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrMalformed, path, err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// Merged is a validated, complete reassembly of one run's shards: the
// shared header plus, per experiment, a dense record slice indexed by task
// declaration index.
type Merged struct {
	Shards   int
	BaseSeed uint64
	Quick    bool
	Trials   int
	Plan     []ExperimentPlan
	records  map[string][]TaskRecord
}

// Records returns the experiment's tasks in declaration order. The slice is
// dense: Merge guarantees index i holds the record of task i.
func (m *Merged) Records(exp string) []TaskRecord {
	return m.records[exp]
}

// NewMerged assembles a Merged directly from one complete in-memory record
// set — the path the run service takes when it stitches cache-served
// per-experiment records together with freshly executed ones, with no shard
// files on disk. The records must tile the plan exactly (every planned task
// index covered once, full artifact validation applies); the result is
// indistinguishable from merging a single shard 1/1 artifact, because that
// is literally what it does.
func NewMerged(baseSeed uint64, quick bool, trials int, plan []ExperimentPlan, records []TaskRecord) (*Merged, error) {
	return Merge([]*Artifact{{
		Version:  SchemaVersion,
		Shard:    1,
		Shards:   1,
		BaseSeed: baseSeed,
		Quick:    quick,
		Trials:   trials,
		Plan:     plan,
		Records:  records,
	}})
}

// Merge validates a set of shard artifacts against each other and
// reassembles the full task-record set. It requires: at least one artifact,
// all at SchemaVersion; identical headers (shard count, base seed, quick
// flag, trial count, plan); shard indices 1..K each present exactly once;
// and per experiment, every planned task index covered by exactly one
// record. Overlaps, gaps, duplicate shards, and missing shards are hard
// errors — a partial merge silently reporting different numbers would
// defeat the whole determinism contract.
func Merge(arts []*Artifact) (*Merged, error) {
	if len(arts) == 0 {
		return nil, fmt.Errorf("%w: no artifacts to merge", ErrMissingShard)
	}
	head := arts[0]
	for _, a := range arts {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if a.Shards != head.Shards || a.BaseSeed != head.BaseSeed ||
			a.Quick != head.Quick || a.Trials != head.Trials {
			return nil, fmt.Errorf("%w: shard %d ran (shards=%d seed=%d quick=%v trials=%d), shard %d ran (shards=%d seed=%d quick=%v trials=%d)",
				ErrHeaderMismatch,
				head.Shard, head.Shards, head.BaseSeed, head.Quick, head.Trials,
				a.Shard, a.Shards, a.BaseSeed, a.Quick, a.Trials)
		}
		if !slices.Equal(a.Plan, head.Plan) {
			return nil, fmt.Errorf("%w: shard %d and shard %d enumerate different task plans", ErrHeaderMismatch, head.Shard, a.Shard)
		}
	}
	seenShard := make(map[int]bool, len(arts))
	for _, a := range arts {
		if seenShard[a.Shard] {
			return nil, fmt.Errorf("%w: shard %d/%d appears twice", ErrDuplicateShard, a.Shard, a.Shards)
		}
		seenShard[a.Shard] = true
	}
	for i := 1; i <= head.Shards; i++ {
		if !seenShard[i] {
			return nil, fmt.Errorf("%w: shard %d/%d has no artifact", ErrMissingShard, i, head.Shards)
		}
	}
	// Size nothing from the plan before checking it against the records
	// present: the plan's task counts are claims, and a corrupt row claiming
	// 10¹⁴ tasks must fail validation, not allocation. Validate keeps every
	// record index inside its row, so more records than planned tasks means
	// an overlap and fewer means a gap. The sum stays at most have, so it
	// cannot overflow.
	have := 0
	for _, a := range arts {
		have += len(a.Records)
	}
	planned := 0
	for _, p := range head.Plan {
		if p.Tasks > have-planned {
			return nil, fmt.Errorf("%w: the plan claims more tasks than the %d records present (shards incomplete?)", ErrMissingTask, have)
		}
		planned += p.Tasks
	}
	if have > planned {
		return nil, fmt.Errorf("%w: %d records for %d planned tasks", ErrDuplicateTask, have, planned)
	}
	m := &Merged{
		Shards:   head.Shards,
		BaseSeed: head.BaseSeed,
		Quick:    head.Quick,
		Trials:   head.Trials,
		Plan:     head.Plan,
		records:  make(map[string][]TaskRecord, len(head.Plan)),
	}
	covered := make(map[string][]bool, len(head.Plan))
	for _, p := range head.Plan {
		m.records[p.ID] = make([]TaskRecord, p.Tasks)
		covered[p.ID] = make([]bool, p.Tasks)
	}
	for _, a := range arts {
		for _, r := range a.Records {
			if covered[r.Exp][r.Index] {
				return nil, fmt.Errorf("%w: %s task %d", ErrDuplicateTask, r.Exp, r.Index)
			}
			covered[r.Exp][r.Index] = true
			m.records[r.Exp][r.Index] = r
		}
	}
	for _, p := range head.Plan {
		for i, ok := range covered[p.ID] {
			if !ok {
				return nil, fmt.Errorf("%w: %s task %d (shards incomplete?)", ErrMissingTask, p.ID, i)
			}
		}
	}
	return m, nil
}
