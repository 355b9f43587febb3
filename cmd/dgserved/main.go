// Command dgserved serves the reproduction suite as a long-lived daemon:
// the same plan/execute/merge core dgbench drives in-process
// (internal/runsvc), behind a small JSON API with a content-addressed
// result cache.
//
// Runs are identified by a content hash over (plan, configuration, seed):
// submitting the same spec twice returns the same run, and with -cache set,
// a spec whose experiments were all executed before — by any earlier run,
// or by dgbench pointed at the same directory — is served without executing
// a single task. Overlapping specs execute only their delta. The served
// tables are byte-identical to a cold `dgbench -all` at the same flags.
//
//	dgserved -addr :8080 -cache /var/cache/dg
//
// Endpoints:
//
//	POST /v1/runs                  submit a spec (JSON body); 201 new, 200 duplicate
//	GET  /v1/runs                  list runs in submission order
//	GET  /v1/runs/{id}             one run's status, counters, and event log
//	GET  /v1/runs/{id}/result      rendered tables; ?format=text|markdown|csv
//	GET  /v1/runs/{id}/events      NDJSON event stream until the run is terminal
//	GET  /v1/experiments           the registry with task counts; ?full=1&trials=N
//
// A spec names registry experiments by exact ID and may add one synthesized
// epoch-churn scenario:
//
//	{"experiments": ["CHURN-broadcast", "L3.2-hitting"], "trials": 3, "seed": 7}
//	{"scenario": {"side": 4, "seed": 9, "gen": {"epochs": 2, "epochLen": 30, "leaves": 1}}}
//
// An empty spec ({}) runs the whole registry, like `dgbench -all`. Spec
// bodies are capped at 1 MiB (413 beyond it); trial counts at
// runsvc.MaxTrials per point and scenarios at 2¹⁷ node-revisions,
// side²·(epochs+2) (400 beyond them); and request headers must arrive
// within 10 s.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (shared with dgbench -cache)")
	inflight := flag.Int("inflight", 2, "maximum concurrently executing runs; submissions beyond it queue")
	flag.Parse()

	svc, err := runsvc.New(runsvc.Options{CacheDir: *cacheDir, MaxInFlight: *inflight})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgserved:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: *addr, Handler: newServer(svc), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dgserved: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dgserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, drain handlers, then
	// wait for in-flight runs so cache writes complete.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "dgserved: shutdown:", err)
	}
	svc.Close()
}

// Request bounds. A spec naming every registry experiment is well under a
// kilobyte, so the body cap only ever turns away a mistaken or hostile
// upload before it is buffered; the header timeout keeps a slow or stalled
// client from holding a connection open indefinitely.
const (
	maxSpecBytes      = 1 << 20
	readHeaderTimeout = 10 * time.Second
)

// newServer builds the daemon's handler around a run service. Split from
// main so tests drive the full HTTP surface through httptest.
func newServer(svc *runsvc.Service) http.Handler {
	s := &server{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.submit)
	mux.HandleFunc("GET /v1/runs", s.list)
	mux.HandleFunc("GET /v1/runs/{id}", s.status)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.events)
	mux.HandleFunc("GET /v1/experiments", s.catalog)
	return mux
}

type server struct {
	svc *runsvc.Service
}

// submitResponse answers POST /v1/runs. Existing reports content-hash
// deduplication: true means an identical submission already owns this
// identity and the caller was handed that run.
type submitResponse struct {
	ID       string       `json:"id"`
	State    runsvc.State `json:"state"`
	Existing bool         `json:"existing"`
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := runsvc.ParseSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	run, existing, err := s.svc.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusCreated
	if existing {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{ID: run.ID(), State: run.State(), Existing: existing})
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Runs())
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	run, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, run.Status())
}

// result renders the run's tables. The bytes are produced by the same
// renderer dgbench uses, so a served result is byte-identical to the
// equivalent CLI run's output.
func (s *server) result(w http.ResponseWriter, r *http.Request) {
	run, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %s", r.PathValue("id")))
		return
	}
	var opts report.Options
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
	case "markdown":
		opts.Markdown = true
	case "csv":
		opts.CSV = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q: want text, markdown or csv", format))
		return
	}
	results, err := run.Results()
	if err != nil {
		// Not merged: either still moving through the lifecycle, or failed.
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Render's summary error restates failing experiments; the table bytes
	// are already written, so it is advisory here.
	_ = report.Render(w, results, opts)
}

// events streams the run's event log as NDJSON: everything so far, then new
// events as they land, closing when the run reaches a terminal state or the
// client goes away.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	run, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %s", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		st, changed := run.Watch()
		for ; next < len(st.Events); next++ {
			if err := enc.Encode(st.Events[next]); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// catalog serves the experiment registry with per-configuration task
// counts: the service-side twin of `dgbench -list -json`.
func (s *server) catalog(w http.ResponseWriter, r *http.Request) {
	cfg := experiments.Config{Quick: true}
	q := r.URL.Query()
	if q.Get("full") == "1" || q.Get("full") == "true" {
		cfg.Quick = false
	}
	if t := q.Get("trials"); t != "" {
		n := 0
		if _, err := fmt.Sscanf(t, "%d", &n); err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("trials %q: want a non-negative integer", t))
			return
		}
		if n > runsvc.MaxTrials {
			writeError(w, http.StatusBadRequest, fmt.Errorf("trials %d exceeds the cap of %d", n, runsvc.MaxTrials))
			return
		}
		cfg.Trials = n
	}
	entries, err := runsvc.Catalog(cfg, s.svc.Catalog())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, entries)
}

type errorResponse struct {
	Error string `json:"error"`
	// Experiments carries per-experiment structure when the failure is a
	// runsvc.RunError: which experiments failed, at which task indices.
	Experiments []errorExperiment `json:"experiments,omitempty"`
}

type errorExperiment struct {
	ID    string `json:"id"`
	Tasks []int  `json:"tasks,omitempty"`
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	resp := errorResponse{Error: err.Error()}
	var rerr *runsvc.RunError
	if errors.As(err, &rerr) {
		for _, ee := range rerr.Experiments {
			resp.Experiments = append(resp.Experiments, errorExperiment{
				ID: ee.ID, Tasks: ee.Tasks, Error: ee.Err.Error(),
			})
		}
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already out; an encode failure here means the
	// connection is gone.
	_ = enc.Encode(v)
}
