// Package experiments defines the reproduction harness: one registered
// experiment per cell of the paper's Figure 1 plus checks of the supporting
// lemmas and two ablations. Each experiment runs parameter sweeps over
// network size with repeated seeded trials and reports a table whose shape
// is compared against the paper's claim (growth exponents, ratios to the
// claimed bounds, separations between rows).
//
// Experiments run at two scales: Quick (seconds; used by tests and smoke
// runs) and Full (minutes; regenerates the reference tables, exportable with
// `dgbench -full -markdown`). DESIGN.md documents the registry and the sweep
// scheduler that executes it.
package experiments

import (
	"runtime"
	"sort"

	"repro/internal/stats"
)

// Config controls an experiment run.
type Config struct {
	// Quick selects reduced sweeps for fast runs.
	Quick bool
	// Trials is the number of independent seeds per sweep point (default 5
	// quick, 15 full).
	Trials int
	// BaseSeed offsets all trial seeds, for variance studies.
	BaseSeed uint64
	// Workers bounds the trial worker pool (default GOMAXPROCS). Workers: 1
	// forces sequential execution; the measured tables are identical at any
	// setting, only wall clock changes.
	Workers int
	// declared, when non-nil, collects the experiment's declaration instead
	// of running it: sweep.finish appends its sweep and build step here for
	// the run lifecycle (declare, in scheduler.go) to fill and finish.
	declared *[]declaration
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return 5
	}
	return 15
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers reports the worker pool size this configuration runs
// with: Workers when set, GOMAXPROCS otherwise.
func (c Config) EffectiveWorkers() int { return c.workers() }

// EffectiveTrials reports the per-point trial count this configuration runs
// with: Trials when set, otherwise the scale default (5 quick, 15 full).
// Callers that key derived state on a configuration — the run service's
// content-addressed cache — normalize through this so Trials: 0 and an
// explicit default spell the same run.
func (c Config) EffectiveTrials() int { return c.trials() }

// Series is a named scaling curve measured by an experiment, for plotting.
type Series struct {
	Name string
	X, Y []float64
}

// Result is an experiment's outcome.
type Result struct {
	ID         string
	Title      string
	PaperClaim string
	// Table holds the measured rows.
	Table *stats.Table
	// Series holds the scaling curves behind the shape fits (x = size
	// parameter, y = median rounds), for plotting.
	Series []Series
	// Notes carry derived observations (growth exponents, separations) and
	// the verdict line.
	Notes []string
	// Pass reports whether the measured shape matches the paper's claim
	// under the experiment's own criterion.
	Pass bool
}

// addSeries appends a named scaling curve.
func (r *Result) addSeries(name string, x, y []float64) {
	if len(x) == 0 {
		return
	}
	r.Series = append(r.Series, Series{Name: name, X: x, Y: y})
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Run        func(cfg Config) (*Result, error)
}

// registry is populated by register calls in this package's files.
var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// trialOutcome aggregates repeated runs of one configuration. Unsolved
// trials are right-censored: they contribute their executed round budget to
// the round summary, and Censored counts how many rows the summary treats
// that way.
type trialOutcome struct {
	MedianRounds float64
	MeanRounds   float64
	Solved       int
	Censored     int
	Trials       int
	P90          float64
}

func verdict(pass bool) string {
	if pass {
		return "PASS: measured shape matches the paper's claim"
	}
	return "FAIL: measured shape deviates from the paper's claim"
}
