package runsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/shard"
)

// CacheSchemaVersion versions every content hash this package computes. Bump
// it when an experiment's semantics change without its task plan changing
// shape — every cache entry and run identity is invalidated at once, which
// is the only safe response to a silent meaning shift.
const CacheSchemaVersion = 1

// Hashes are computed over canonical JSON: Go marshals struct fields in
// declaration order and emits the shortest float representation, so the same
// payload produces the same bytes in every process on every platform. The
// payload structs below are the canonical forms — field order is part of the
// format, append-only.

// hashJSON is the one hashing primitive: sha256 over the canonical JSON
// encoding, hex-encoded.
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// The payload structs contain only plain data; a marshal failure is a
		// programming error, not an input error.
		panic("runsvc: hashing unmarshalable payload: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type runKeyPayload struct {
	Cache    int                    `json:"cache"`
	Schema   int                    `json:"schema"`
	Quick    bool                   `json:"quick"`
	Trials   int                    `json:"trials"`
	Seed     uint64                 `json:"seed"`
	Plan     []shard.ExperimentPlan `json:"plan"`
	Scenario *ScenarioSpec          `json:"scenario,omitempty"`
}

// RunKey is a run's identity: a content hash over the task plan, the
// output-affecting configuration, and the seed. Two submissions with the
// same key produce byte-identical output, so the service runs them once.
// Workers is deliberately absent — it changes wall clock, not output.
func RunKey(cfg experiments.Config, plan []shard.ExperimentPlan, scn *ScenarioSpec) string {
	return hashJSON(runKeyPayload{
		Cache:    CacheSchemaVersion,
		Schema:   shard.SchemaVersion,
		Quick:    cfg.Quick,
		Trials:   cfg.EffectiveTrials(),
		Seed:     cfg.BaseSeed,
		Plan:     plan,
		Scenario: scn,
	})
}

type expKeyPayload struct {
	Cache  int    `json:"cache"`
	Schema int    `json:"schema"`
	Quick  bool   `json:"quick"`
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
	ID     string `json:"id"`
	Tasks  int    `json:"tasks"`
}

// ExperimentKey addresses one experiment's records in the result cache: a
// hash over the configuration that seeds its tasks plus the experiment's row
// of the plan. It is independent of which other experiments share the run —
// tasks are seeded per experiment, which is exactly what makes per-experiment
// caching sound — so overlapping submissions hit the same entries. A
// scenario experiment's ID embeds its spec's content hash (ScenarioID), so
// distinct scenarios key apart with no extra field here.
func ExperimentKey(cfg experiments.Config, p shard.ExperimentPlan) string {
	return hashJSON(expKeyPayload{
		Cache:  CacheSchemaVersion,
		Schema: shard.SchemaVersion,
		Quick:  cfg.Quick,
		Trials: cfg.EffectiveTrials(),
		Seed:   cfg.BaseSeed,
		ID:     p.ID,
		Tasks:  p.Tasks,
	})
}

type scenarioIDPayload struct {
	Cache    int          `json:"cache"`
	Scenario ScenarioSpec `json:"scenario"`
}

// ScenarioID derives a caller-defined scenario experiment's ID from its
// spec's content hash: "CUSTOM-churn-" plus 12 hex digits. The prefix keeps
// scenario experiments visually distinct from the registry; the hash keeps
// distinct specs from colliding in the cache and the run index.
func ScenarioID(sc ScenarioSpec) string {
	return "CUSTOM-churn-" + hashJSON(scenarioIDPayload{Cache: CacheSchemaVersion, Scenario: sc})[:12]
}
