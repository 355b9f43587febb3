package runsvc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
)

// State is a run's lifecycle position. Transitions are strictly forward:
// Submitted → Planning → Executing → Merged | Failed.
type State string

const (
	StateSubmitted State = "submitted"
	StatePlanning  State = "planning"
	StateExecuting State = "executing"
	StateMerged    State = "merged"
	StateFailed    State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateMerged || s == StateFailed }

// Event is one timestamped entry of a run's event log, sequenced so stream
// consumers can resume from the last seq they saw.
type Event struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	State State     `json:"state"`
	Msg   string    `json:"msg,omitempty"`
}

// ExperimentStatus is one experiment's row of a run's status: its plan
// entry, its cache key, where its records came from, and its structured
// failure if the run failed there.
type ExperimentStatus struct {
	ID    string `json:"id"`
	Tasks int    `json:"tasks"`
	Key   string `json:"key"`
	// Source is "cache" (the result memo or the on-disk cache) or
	// "executed" once the run reaches Executing.
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
	// FailedTasks holds per-experiment task indices for trial-level
	// failures.
	FailedTasks []int `json:"failedTasks,omitempty"`
}

// RunStatus is a run's JSON-serializable snapshot.
type RunStatus struct {
	ID            string             `json:"id"`
	State         State              `json:"state"`
	Spec          Spec               `json:"spec"`
	Experiments   []ExperimentStatus `json:"experiments"`
	ExecutedTasks int                `json:"executedTasks"`
	CachedTasks   int                `json:"cachedTasks"`
	Error         string             `json:"error,omitempty"`
	Events        []Event            `json:"events"`
}

// Run is one submitted run moving through the lifecycle. All mutation goes
// through the service's execute goroutine; readers take snapshots (Status)
// or wait on the done/changed channels.
type Run struct {
	id   string
	spec Spec

	mu      sync.Mutex
	state   State
	events  []Event
	exps    []ExperimentStatus
	results []*experiments.Result
	err     error
	// executed and cached count tasks by provenance for this run. Tests and
	// the CI smoke job assert cache behavior on these counters — "repeat
	// submission executes zero tasks" is a statement about executed, not
	// about timing.
	executed int
	cached   int
	// changed is closed and replaced on every status append, so streamers
	// can select on "something happened" against their request context.
	changed chan struct{}
	// done is closed exactly once, on the terminal transition.
	done chan struct{}
}

func newRun(id string, spec Spec, exps []ExperimentStatus) *Run {
	r := &Run{
		id:      id,
		spec:    spec,
		state:   StateSubmitted,
		exps:    exps,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.events = append(r.events, Event{Seq: 0, Time: time.Now(), State: StateSubmitted})
	return r
}

// ID returns the run's content-hash identity.
func (r *Run) ID() string { return r.id }

// Spec returns the normalized spec the run was submitted with.
func (r *Run) Spec() Spec { return r.spec }

// State returns the current lifecycle state.
func (r *Run) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Err returns the run's failure (a *RunError for structured experiment
// failures), or nil.
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Results returns the merged results in experiment order. It errors until
// the run reaches Merged. The results may be shared with other runs of the
// service, through its result memo: callers must not modify them.
func (r *Run) Results() ([]*experiments.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case StateMerged:
		return r.results, nil
	case StateFailed:
		return nil, r.err
	default:
		return nil, fmt.Errorf("runsvc: run %s is %s, results exist only once merged", r.id, r.state)
	}
}

// ExecutedTasks reports how many tasks this run actually executed.
func (r *Run) ExecutedTasks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// CachedTasks reports how many tasks this run served from the cache.
func (r *Run) CachedTasks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cached
}

// Status snapshots the run.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

func (r *Run) statusLocked() RunStatus {
	st := RunStatus{
		ID:            r.id,
		State:         r.state,
		Spec:          r.spec,
		Experiments:   append([]ExperimentStatus(nil), r.exps...),
		ExecutedTasks: r.executed,
		CachedTasks:   r.cached,
		Events:        append([]Event(nil), r.events...),
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	return st
}

// Watch snapshots the run and returns a channel closed at the next status
// change, for streaming consumers: snapshot, emit what's new, then select
// on the channel against the request context.
func (r *Run) Watch() (RunStatus, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked(), r.changed
}

// post appends an event — transitioning state when st is non-empty — and
// wakes watchers. Terminal states close done. Callers hold no lock.
func (r *Run) post(st State, msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.postLocked(st, msg)
}

func (r *Run) postLocked(st State, msg string) {
	if st != "" {
		r.state = st
	}
	r.events = append(r.events, Event{Seq: len(r.events), Time: time.Now(), State: r.state, Msg: msg})
	close(r.changed)
	r.changed = make(chan struct{})
	if r.state.Terminal() {
		close(r.done)
	}
}

// setSource stamps where an experiment's records came from.
func (r *Run) setSource(id, source string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.exps {
		if r.exps[i].ID == id {
			r.exps[i].Source = source
		}
	}
}

// addCached and addExecuted accumulate the provenance counters.
func (r *Run) addCached(n int)   { r.mu.Lock(); r.cached += n; r.mu.Unlock() }
func (r *Run) addExecuted(n int) { r.mu.Lock(); r.executed += n; r.mu.Unlock() }

// finish drives the terminal transition: Merged with results, or Failed
// with the error — stamping per-experiment statuses when the failure is a
// structured *RunError.
func (r *Run) finish(results []*experiments.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.results = results
		r.postLocked(StateMerged, fmt.Sprintf("merged %d experiments", len(results)))
		return
	}
	r.err = err
	if rerr, ok := err.(*RunError); ok {
		for _, ee := range rerr.Experiments {
			for i := range r.exps {
				if r.exps[i].ID == ee.ID {
					r.exps[i].Error = ee.Err.Error()
					r.exps[i].FailedTasks = append([]int(nil), ee.Tasks...)
				}
			}
		}
	}
	r.postLocked(StateFailed, err.Error())
}
