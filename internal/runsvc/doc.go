// Package runsvc is the service-shaped experiment core: it owns the run
// lifecycle as an explicit state machine (Submitted → Planning → Executing →
// Merged/Failed) over the deterministic plan/execute/merge engine in
// internal/experiments, and layers a content-addressed result cache on top.
//
// A run begins as a Spec — a fully serializable description of an experiment
// selection plus configuration, including caller-submitted churn scenarios —
// and is identified by a content hash over (task plan, configuration, seed):
// identical submissions share one run, no matter which frontend they arrive
// through. Results are cached per experiment in internal/shard's artifact
// format, so an overlapping submission reuses every cached experiment and
// executes only the delta; because aggregation replays from raw task records
// either way, a cache-served result is byte-identical to a cold run. Above
// the cache sit two in-memory memos, each bounded by bytes with
// least-recently-used eviction: plan rows per experiment and configuration,
// and — when a cache is configured — merged results per cache key. A
// submission of experiments the service has already served is a lookup: it
// runs no experiment's declaration code.
//
// Both frontends sit on this package: cmd/dgserved exposes the lifecycle
// over HTTP, and cmd/dgbench drives the same Service in-process.
//
// This is service code, not simulation code: event timestamps read the wall
// clock and run bookkeeping is request-ordered. Every simulation output the
// package produces goes through the deterministic plan/execute/merge engine
// in internal/experiments, which stays under the determinism gates — hence
// the scoped dglint exemption below.
//
//dglint:service daemon run lifecycle; simulation output is produced by the deterministic engine in internal/experiments
package runsvc
