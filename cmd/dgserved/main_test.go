package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
	"repro/internal/shard"
)

// newTestServer builds the daemon's handler over a fresh service, with
// MaxInFlight 1 so submission order is execution order.
func newTestServer(t *testing.T, cacheDir string) (*httptest.Server, *runsvc.Service) {
	t.Helper()
	svc, err := runsvc.New(runsvc.Options{CacheDir: cacheDir, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

const specBody = `{"experiments": ["CHURN-broadcast", "L3.2-hitting"], "trials": 2}`

func submitSpec(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return sr, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// waitMerged blocks until the run is terminal via the NDJSON event stream —
// the streaming endpoint is itself under test here — then asserts Merged.
func waitMerged(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last runsvc.Event
	sc := bufio.NewScanner(resp.Body)
	seq := 0
	for sc.Scan() {
		var ev runsvc.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event stream line %q: %v", sc.Text(), err)
		}
		if ev.Seq != seq {
			t.Fatalf("event stream out of order: seq %d at position %d", ev.Seq, seq)
		}
		seq++
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.State != runsvc.StateMerged {
		t.Fatalf("run ended %s: %s", last.State, last.Msg)
	}
}

// TestServeSubmitPollResult is the end-to-end happy path: submit, stream
// events until merged, fetch the rendered tables in every format, and check
// each one is byte-identical to the in-process renderer's output for the
// same results — the daemon adds transport, never bytes.
func TestServeSubmitPollResult(t *testing.T) {
	ts, svc := newTestServer(t, "")

	sr, code := submitSpec(t, ts, specBody)
	if code != http.StatusCreated {
		t.Fatalf("first submission returned %d, want 201", code)
	}
	if sr.Existing {
		t.Fatal("first submission reported existing")
	}
	waitMerged(t, ts, sr.ID)

	run, ok := svc.Get(sr.ID)
	if !ok {
		t.Fatal("run missing from service")
	}
	results, err := run.Results()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "markdown", "csv"} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/result?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := got.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s returned %d: %s", format, resp.StatusCode, got.String())
		}
		var want bytes.Buffer
		_ = report.Render(&want, results, report.Options{Markdown: format == "markdown", CSV: format == "csv"})
		if got.String() != want.String() {
			t.Errorf("served %s differs from renderer\n--- served:\n%s\n--- want:\n%s", format, got.String(), want.String())
		}
	}

	var st runsvc.RunStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+sr.ID, &st); code != http.StatusOK {
		t.Fatalf("status returned %d", code)
	}
	if st.State != runsvc.StateMerged || len(st.Experiments) != 2 || st.ExecutedTasks == 0 {
		t.Errorf("status = %+v", st)
	}
	for _, es := range st.Experiments {
		if es.Source != "executed" || es.Key == "" {
			t.Errorf("experiment status = %+v", es)
		}
	}

	var runs []runsvc.RunStatus
	if code := getJSON(t, ts.URL+"/v1/runs", &runs); code != http.StatusOK || len(runs) != 1 {
		t.Errorf("run list: code %d, %d runs", code, len(runs))
	}
}

// TestServeDeduplicationAndCache pins the service contract the CI smoke job
// rechecks from outside: resubmitting an identical spec returns the same
// run (200, existing, zero new execution), and a fresh daemon over the same
// cache directory serves the spec with zero executed tasks and byte-identical
// tables.
func TestServeDeduplicationAndCache(t *testing.T) {
	cache := t.TempDir()
	ts, _ := newTestServer(t, cache)

	first, code := submitSpec(t, ts, specBody)
	if code != http.StatusCreated {
		t.Fatalf("first submission returned %d", code)
	}
	waitMerged(t, ts, first.ID)

	again, code := submitSpec(t, ts, specBody)
	if code != http.StatusOK || !again.Existing || again.ID != first.ID {
		t.Fatalf("resubmission: code %d, %+v (want 200, existing, id %s)", code, again, first.ID)
	}
	var st runsvc.RunStatus
	getJSON(t, ts.URL+"/v1/runs/"+first.ID, &st)
	if st.ExecutedTasks == 0 {
		t.Error("cold run executed zero tasks")
	}

	var cold bytes.Buffer
	resp, err := http.Get(ts.URL + "/v1/runs/" + first.ID + "/result?format=markdown")
	if err != nil {
		t.Fatal(err)
	}
	cold.ReadFrom(resp.Body)
	resp.Body.Close()

	// A different daemon, same cache directory: the run executes nothing.
	ts2, _ := newTestServer(t, cache)
	warm, code := submitSpec(t, ts2, specBody)
	if code != http.StatusCreated || warm.Existing {
		t.Fatalf("fresh-daemon submission: code %d, %+v", code, warm)
	}
	if warm.ID != first.ID {
		t.Fatalf("run identity differs across daemons: %s vs %s", warm.ID, first.ID)
	}
	waitMerged(t, ts2, warm.ID)
	var wst runsvc.RunStatus
	getJSON(t, ts2.URL+"/v1/runs/"+warm.ID, &wst)
	if wst.ExecutedTasks != 0 {
		t.Errorf("warm run executed %d tasks, want 0", wst.ExecutedTasks)
	}
	if wst.CachedTasks == 0 {
		t.Error("warm run served no tasks from cache")
	}
	for _, es := range wst.Experiments {
		if es.Source != "cache" {
			t.Errorf("experiment %s source = %q, want cache", es.ID, es.Source)
		}
	}
	var warmOut bytes.Buffer
	resp, err = http.Get(ts2.URL + "/v1/runs/" + warm.ID + "/result?format=markdown")
	if err != nil {
		t.Fatal(err)
	}
	warmOut.ReadFrom(resp.Body)
	resp.Body.Close()
	if warmOut.String() != cold.String() {
		t.Errorf("cache-served tables differ from cold run\n--- cold:\n%s\n--- warm:\n%s", cold.String(), warmOut.String())
	}
}

// TestServeValidation covers the 4xx surface: malformed and invalid specs,
// unknown runs, premature results, bad formats.
func TestServeValidation(t *testing.T) {
	ts, _ := newTestServer(t, "")

	for _, tc := range []struct {
		name, body, want string
		code             int
	}{
		{"not json", `nonsense`, "invalid", http.StatusBadRequest},
		{"unknown field", `{"experiemnts": ["L3.2-hitting"]}`, "unknown field", http.StatusBadRequest},
		{"unknown experiment", `{"experiments": ["F1"]}`, `unknown experiment "F1"`, http.StatusBadRequest},
		{"bad scenario", `{"scenario": {"side": 1}}`, "side 1", http.StatusBadRequest},
		{"trials over cap", `{"experiments": ["L3.2-hitting"], "trials": ` + strconv.Itoa(runsvc.MaxTrials+1) + `}`, "exceeds the cap", http.StatusBadRequest},
		{"scenario over cap", `{"scenario": {"side": 256, "gen": {"epochs": 2, "epochLen": 30}}}`, "exceeds the cap", http.StatusBadRequest},
		{"over cap", `{"experiments": ["` + strings.Repeat("x", maxSpecBytes) + `"]}`, "too large", http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Errorf("error %q, want mention of %q", er.Error, tc.want)
			}
		})
	}

	for _, path := range []string{"/v1/runs/deadbeef", "/v1/runs/deadbeef/result", "/v1/runs/deadbeef/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s returned %d, want 404", path, resp.StatusCode)
		}
	}

	sr, _ := submitSpec(t, ts, specBody)
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/result?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format returned %d, want 400", resp.StatusCode)
	}
	waitMerged(t, ts, sr.ID)
}

// gatedRunner holds Execute until released, so tests can observe a run in a
// non-terminal state without racing the (fast) quick experiments.
type gatedRunner struct {
	runsvc.EngineRunner
	release chan struct{}
}

func (g gatedRunner) Execute(cfg experiments.Config, exps []experiments.Experiment, index, count int) (*shard.Artifact, error) {
	<-g.release
	return g.EngineRunner.Execute(cfg, exps, index, count)
}

// TestServeResultBeforeMerged gates execution so the run is pinned
// mid-lifecycle, and expects 409 from the result endpoint until it merges.
func TestServeResultBeforeMerged(t *testing.T) {
	gate := gatedRunner{release: make(chan struct{})}
	svc, err := runsvc.New(runsvc.Options{Runner: gate, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	sr, code := submitSpec(t, ts, `{"experiments": ["CHURN-broadcast"], "trials": 2}`)
	if code != http.StatusCreated {
		t.Fatalf("submission returned %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result before merged returned %d (%s), want 409", resp.StatusCode, body.String())
	}
	close(gate.release)
	waitMerged(t, ts, sr.ID)
}

// TestServeCatalog checks the registry endpoint and its configuration
// query parameters.
func TestServeCatalog(t *testing.T) {
	ts, _ := newTestServer(t, "")

	var entries []runsvc.CatalogEntry
	if code := getJSON(t, ts.URL+"/v1/experiments", &entries); code != http.StatusOK {
		t.Fatalf("catalog returned %d", code)
	}
	if len(entries) != len(experiments.All()) {
		t.Errorf("catalog has %d entries, registry has %d", len(entries), len(experiments.All()))
	}
	byID := map[string]runsvc.CatalogEntry{}
	for _, e := range entries {
		if e.ID == "" || e.Tasks <= 0 || !e.Quick {
			t.Errorf("bad entry %+v", e)
		}
		byID[e.ID] = e
	}

	var trialed []runsvc.CatalogEntry
	getJSON(t, ts.URL+"/v1/experiments?trials=3", &trialed)
	for _, e := range trialed {
		if e.Trials != 3 {
			t.Errorf("entry %s trials = %d, want 3", e.ID, e.Trials)
		}
		if base, ok := byID[e.ID]; ok && base.Trials != 0 && e.Tasks == base.Tasks && base.Trials == e.Trials {
			t.Errorf("entry %s ignored the trials override", e.ID)
		}
	}

	var full []runsvc.CatalogEntry
	getJSON(t, ts.URL+"/v1/experiments?full=1", &full)
	for _, e := range full {
		if e.Quick {
			t.Errorf("full catalog entry %s still quick", e.ID)
		}
	}

	for _, trials := range []string{"-1", strconv.Itoa(runsvc.MaxTrials + 1)} {
		resp, err := http.Get(ts.URL + "/v1/experiments?trials=" + trials)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trials=%s returned %d, want 400", trials, resp.StatusCode)
		}
	}
}

// TestServeScenarioRun submits a synthesized scenario through the HTTP
// surface and checks the run merges with the scenario experiment present.
func TestServeScenarioRun(t *testing.T) {
	ts, _ := newTestServer(t, "")

	body := `{"trials": 2, "scenario": {"side": 3, "seed": 11, "gen": {"epochs": 1, "epochLen": 10, "leaves": 1}}}`
	sr, code := submitSpec(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("scenario submission returned %d", code)
	}
	waitMerged(t, ts, sr.ID)
	var st runsvc.RunStatus
	getJSON(t, ts.URL+"/v1/runs/"+sr.ID, &st)
	if len(st.Experiments) != 1 || !strings.HasPrefix(st.Experiments[0].ID, "CUSTOM-churn-") {
		t.Errorf("scenario run experiments = %+v", st.Experiments)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(out.String(), "CUSTOM-churn-") {
		t.Errorf("scenario result missing custom experiment:\n%s", out.String())
	}
}
