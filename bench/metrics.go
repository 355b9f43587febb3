package main

import (
	"fmt"
	"math"
	"sort"
)

// Workload names, as BENCHMARK.json declares them.
const (
	wRegistryCold = "registry-cold"
	wDaemonWarm   = "daemon-warm"
	wEngineDense  = "engine-dense"
	wEngineSparse = "engine-sparse"
)

var (
	allWorkloads = []string{wRegistryCold, wDaemonWarm, wEngineDense, wEngineSparse}
	service      = []string{wRegistryCold, wDaemonWarm}
)

// lightIDs are 17 of the 22 IDs of the registry when the benchmark was
// defined. They are fixed here so that a new experiment does not change
// the benchmark's work. registry-cold and daemon-warm run them at the
// default quick configuration.
//
// The other five — ABL-permutation, EXT-leader, F1-oblivious-global,
// F1-static-global and SCALE-n — hold 135 of the 6854 tasks but about 90%
// of a cold run's compute: one cold request of them takes about 13 s at the
// default trial count and 3 s at one trial per point, too few requests per
// run for a steady measure. engine-dense and engine-sparse run SCALE-n's
// substrates through radio.Run; the other four are a known gap
// (README.md).
var lightIDs = []string{
	"ABL-seeds", "ADV-churnwindow", "CHURN-broadcast", "CHURN-gossip",
	"EXT-contention", "EXT-derand", "EXT-gossip",
	"F1-oblivious-local-general", "F1-oblivious-local-geo",
	"F1-offline-global", "F1-offline-local", "F1-online-global",
	"F1-online-local", "F1-static-local", "L3.2-hitting",
	"L4.2-permdecay", "T3.1-reduction",
}

// metric declares one printed metric. End-to-end metrics carry the bound a
// later change may worsen them by; per-layer metrics name the end-to-end
// metric they should move and the workloads that measure them. On every
// other workload a per-layer metric reads 0: that layer is not on its path.
type metric struct {
	name, unit, better string
	bound              float64
	moves              string
	on                 []string
}

// Both times are CPU time at the reference speed (refkernel.go). Their
// bound is 25%: on the shared 2-vCPU host the benchmark was defined on,
// runs of identical code at one seed spread by up to 9.4% between their
// quartiles even after that correction, and the medians of two sets of ten
// runs differed by up to 19% (BASELINE.json). A 10% bound would reject
// unchanged code. setup_s is there to catch work moved out of the measured
// requests into set-up. The memory bound is 5%.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "req_cpu_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "mem_mb", unit: "MB", better: "lower", bound: 0.05},
}

// perLayer is the per-layer metric table printed by a traced run. Layer
// times are shares (%) of the enclosing request or set-up, or rates of work
// per second, so that a layer a workload never reaches reads 0 without
// posing as a measured time.
var perLayer = func() []metric {
	var ms []metric
	add := func(name, unit, better, moves string, on []string) {
		ms = append(ms, metric{name: name, unit: unit, better: better, moves: moves, on: on})
	}
	add("req.wall_p50_ms", "ms", "lower", "req_cpu_ms", allWorkloads)
	add("req.wall_p90_ms", "ms", "lower", "req_cpu_ms", allWorkloads)
	add("req.cpu_raw_ms", "ms", "lower", "req_cpu_ms", allWorkloads)
	add("ref.unit_ms", "ms", "lower", "req_cpu_ms", allWorkloads)
	add("go.gc_cycles", "count", "lower", "req_cpu_ms", allWorkloads)
	add("go.gc_pause_ms", "ms", "lower", "req_cpu_ms", allWorkloads)
	add("proc.vmhwm_mb", "MB", "lower", "mem_mb", allWorkloads)
	add("go.retained_kb_per_req", "KB", "lower", "mem_mb", allWorkloads)
	add("trace.overhead_pct", "%", "lower", "req_cpu_ms", allWorkloads)

	for _, p := range []string{"plan", "replan", "execute", "merge", "self"} {
		add("runsvc."+p+"_pct", "%", "lower", "req_cpu_ms", service)
	}
	add("runsvc.executed_tasks", "count", "lower", "req_cpu_ms", service)
	add("runsvc.cached_tasks", "count", "higher", "req_cpu_ms", service)
	add("runsvc.hit_ratio", "ratio", "higher", "req_cpu_ms", service)
	for _, id := range lightIDs {
		add("experiments.exec_pct."+id, "%", "lower", "req_cpu_ms", []string{wRegistryCold})
	}

	add("cache.get_mb_per_s", "MB/s", "higher", "req_cpu_ms", service)
	add("cache.put_mb_per_s", "MB/s", "higher", "req_cpu_ms", []string{wRegistryCold})
	add("cache.entry_kb", "KB", "lower", "req_cpu_ms", service)
	add("cache.total_mb", "MB", "lower", "req_cpu_ms", service)
	add("shard.read_mb_per_s", "MB/s", "higher", "req_cpu_ms", service)
	add("shard.write_mb_per_s", "MB/s", "higher", "req_cpu_ms", service)
	add("shard.merge_krec_per_s", "krec/s", "higher", "req_cpu_ms", service)
	add("shard.artifact_mb", "MB", "lower", "req_cpu_ms", service)
	add("shard.records", "count", "lower", "req_cpu_ms", service)
	add("report.render_mb_per_s", "MB/s", "higher", "req_cpu_ms", service)
	add("report.markdown_kb", "KB", "lower", "req_cpu_ms", service)

	for _, p := range []string{"submit", "queue", "partition", "merge", "stream", "result"} {
		add("dgserved."+p+"_pct", "%", "lower", "req_cpu_ms", []string{wDaemonWarm})
	}
	add("dgserved.retained_kb_per_req", "KB", "lower", "mem_mb", []string{wDaemonWarm})
	add("dgserved.dedup", "count", "lower", "req_cpu_ms", []string{wDaemonWarm})

	for _, eng := range []struct {
		spec engineSpec
		on   string
	}{{denseEngine, wEngineDense}, {sparseEngine, wEngineSparse}} {
		on := []string{eng.on}
		for _, r := range eng.spec.rows {
			add("radio.node_rounds_per_s."+r.name, "1/s", "higher", "req_cpu_ms", on)
			add("radio.rounds."+r.name, "count", "lower", "req_cpu_ms", on)
			add("radio.transmissions."+r.name, "count", "lower", "req_cpu_ms", on)
			add("radio.deliveries."+r.name, "count", "higher", "req_cpu_ms", on)
			add("radio.allocs_per_trial."+r.name, "count", "lower", "req_cpu_ms", on)
			add("radio.kb_per_trial."+r.name, "KB", "lower", "mem_mb", on)
			add("radio.warmup_pct."+r.name, "%", "lower", "setup_s", on)
		}
		for _, sub := range eng.spec.subs {
			add("graph.build_pct."+sub.name, "%", "lower", "setup_s", on)
			if sub.decompose {
				add("graph.decompose_pct."+sub.name, "%", "lower", "setup_s", on)
			}
			add("graph.edges."+sub.name, "count", "lower", "mem_mb", on)
			add("graph.extra_edges."+sub.name, "count", "lower", "mem_mb", on)
		}
	}
	return ms
}()

// measured reports whether a per-layer metric is on the workload's path.
func (m metric) measured(workload string) bool {
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the printed metric set from the values a run measured:
// every declared metric, in its declared unit. A metric the workload should
// have measured but did not is a harness bug, reported as an error.
func collect(workload string, decls []metric, perLayerRun bool, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	var missing []string
	for _, m := range decls {
		v, ok := got[m.name]
		if !ok && (!perLayerRun || m.measured(workload)) {
			missing = append(missing, m.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s measured no value for %v", workload, missing)
	}
	return out, nil
}
