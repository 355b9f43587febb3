package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runsvc"
)

func TestRunFilteredQuick(t *testing.T) {
	// L3.2 is the fastest experiment; a filtered quick run exercises the
	// whole pipeline.
	if err := run(io.Discard, []string{"-run", "L3.2", "-trials", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdownAndCSV(t *testing.T) {
	if err := run(io.Discard, []string{"-run", "L3.2", "-trials", "2", "-markdown"}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"-run", "L3.2", "-trials", "2", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFilter(t *testing.T) {
	if err := run(io.Discard, []string{"-run", "no-such-experiment"}); err == nil {
		t.Fatal("unknown filter accepted")
	}
	if err := run(io.Discard, []string{"-all", "-run", "no-such-experiment"}); err == nil {
		t.Fatal("unknown filter accepted in -all mode")
	}
}

func TestRunAllSharedPool(t *testing.T) {
	// "2" selects the two fast lemma checks (L3.2-hitting, L4.2-permdecay);
	// both run through the shared pool with an explicit worker count.
	if err := run(io.Discard, []string{"-all", "-workers", "2", "-run", "2", "-trials", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkersSequential(t *testing.T) {
	if err := run(io.Discard, []string{"-workers", "1", "-run", "L3.2", "-trials", "2"}); err != nil {
		t.Fatal(err)
	}
}

// TestShardMergeMatchesAll is the CLI half of the sharding contract: for
// K ∈ {1, 2, 3}, K `-shard i/K` invocations followed by one `-merge`
// produce byte-identical markdown and CSV output to a single-process
// `-all` run at the same seeds.
func TestShardMergeMatchesAll(t *testing.T) {
	base := []string{"-run", "2", "-trials", "2", "-seed", "7"}
	var wantMD, wantCSV bytes.Buffer
	if err := run(&wantMD, append([]string{"-all", "-markdown"}, base...)); err != nil {
		t.Fatal(err)
	}
	if err := run(&wantCSV, append([]string{"-all", "-csv"}, base...)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			for i := 1; i <= k; i++ {
				out := filepath.Join(dir, fmt.Sprintf("shard_%d.json", i))
				args := append([]string{"-shard", fmt.Sprintf("%d/%d", i, k), "-out", out}, base...)
				if err := run(io.Discard, args); err != nil {
					t.Fatalf("shard %d/%d: %v", i, k, err)
				}
			}
			glob := filepath.Join(dir, "shard_*.json")
			var gotMD, gotCSV bytes.Buffer
			if err := run(&gotMD, []string{"-merge", glob, "-markdown"}); err != nil {
				t.Fatalf("merge: %v", err)
			}
			if gotMD.String() != wantMD.String() {
				t.Errorf("merged markdown differs from -all\n--- all:\n%s\n--- merged:\n%s", wantMD.String(), gotMD.String())
			}
			if err := run(&gotCSV, []string{"-merge", glob, "-csv"}); err != nil {
				t.Fatalf("merge csv: %v", err)
			}
			if gotCSV.String() != wantCSV.String() {
				t.Errorf("merged CSV differs from -all\n--- all:\n%s\n--- merged:\n%s", wantCSV.String(), gotCSV.String())
			}
		})
	}
}

// TestListExperiments checks -list prints the index (ID + title) without
// executing anything, and that the -run filter composes with it.
func TestListExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"F1-static-global", "CHURN-gossip", "EXT-contention", "L3.2-hitting"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
	var filtered bytes.Buffer
	if err := run(&filtered, []string{"-list", "-run", "CHURN"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(filtered.String(), "L3.2-hitting") || !strings.Contains(filtered.String(), "CHURN-broadcast") {
		t.Errorf("-list -run CHURN filtered wrong:\n%s", filtered.String())
	}
	if err := run(io.Discard, []string{"-list", "-run", "no-such-experiment"}); err == nil {
		t.Error("-list with unmatched filter accepted")
	}
}

// TestListFlagValidation rejects -list combined with execution modes, the
// same way the other mode flags reject each other. Plain -list also rejects
// the configuration flags (they cannot change an ID/title index); -json is
// only meaningful under -list.
func TestListFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-list", "-shard", "1/2", "-out", "x.json"},
		{"-list", "-merge", "x*.json"},
		{"-list", "-all"},
		{"-list", "-markdown"},
		{"-list", "-trials", "3"},
		{"-list", "-json", "-markdown"},
		{"-list", "-json", "-all"},
		{"-json", "-run", "L3.2"},
	} {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestListJSON checks the machine-readable registry: -list -json emits a
// JSON array of catalog entries with IDs and positive task counts, the -run
// filter composes, and the configuration flags are admitted (task counts
// depend on them) even though plain -list rejects them.
func TestListJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-list", "-json", "-trials", "3"}); err != nil {
		t.Fatal(err)
	}
	var entries []runsvc.CatalogEntry
	if err := json.Unmarshal(out.Bytes(), &entries); err != nil {
		t.Fatalf("-list -json output is not a catalog: %v\n%s", err, out.String())
	}
	if len(entries) == 0 {
		t.Fatal("-list -json emitted an empty catalog")
	}
	seen := map[string]runsvc.CatalogEntry{}
	for _, e := range entries {
		if e.ID == "" || e.Tasks <= 0 || e.Trials != 3 || !e.Quick {
			t.Errorf("bad catalog entry: %+v", e)
		}
		seen[e.ID] = e
	}
	if _, ok := seen["L3.2-hitting"]; !ok {
		t.Error("-list -json catalog missing L3.2-hitting")
	}

	var filtered bytes.Buffer
	if err := run(&filtered, []string{"-list", "-json", "-run", "CHURN"}); err != nil {
		t.Fatal(err)
	}
	entries = nil
	if err := json.Unmarshal(filtered.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.Contains(e.ID, "CHURN") {
			t.Errorf("-list -json -run CHURN returned %s", e.ID)
		}
	}
	if len(entries) == 0 {
		t.Error("-list -json -run CHURN returned nothing")
	}
}

// TestRunCacheRepeat drives the CLI cache path: a second -all run against
// the same cache directory produces byte-identical output and reports zero
// executed tasks in the cache line.
func TestRunCacheRepeat(t *testing.T) {
	cache := t.TempDir()
	base := []string{"-all", "-run", "CHURN-broadcast", "-trials", "2", "-cache", cache}
	var cold, warm bytes.Buffer
	if err := run(&cold, base); err != nil {
		t.Fatal(err)
	}
	if err := run(&warm, base); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "tasks served, 0 executed") {
		t.Errorf("warm run did not report zero executed tasks:\n%s", warm.String())
	}
	if !strings.Contains(cold.String(), "0 tasks served") {
		t.Errorf("cold run reported cache hits:\n%s", cold.String())
	}
	// The tables are byte-identical; only the timing/cache trailer lines may
	// differ (wall clock and hit counts).
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "shared pool:") || strings.HasPrefix(line, "cache:") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	if strip(cold.String()) != strip(warm.String()) {
		t.Errorf("cache-served output differs from cold run\n--- cold:\n%s\n--- warm:\n%s", cold.String(), warm.String())
	}
	// Markdown output has no trailer lines at all, so it is byte-identical.
	var mdCold, mdWarm bytes.Buffer
	md := append(base, "-markdown")
	if err := run(&mdCold, md); err != nil {
		t.Fatal(err)
	}
	if err := run(&mdWarm, md); err != nil {
		t.Fatal(err)
	}
	if mdCold.String() != mdWarm.String() {
		t.Errorf("cached markdown differs from cold markdown\n--- cold:\n%s\n--- warm:\n%s", mdCold.String(), mdWarm.String())
	}
}

// TestMergeEmptyGlobNamesGlob pins the fail-fast contract: a -merge glob
// matching zero files must fail immediately with the glob in the message,
// not surface a downstream artifact error.
func TestMergeEmptyGlobNamesGlob(t *testing.T) {
	const glob = "no-such-dir/shard_*.json"
	err := run(io.Discard, []string{"-merge", glob})
	if err == nil {
		t.Fatal("empty glob accepted")
	}
	if !strings.Contains(err.Error(), glob) {
		t.Fatalf("error %q does not name the glob %q", err, glob)
	}
}

func TestShardFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-shard", "1/2"},                                // missing -out
		{"-shard", "0/2", "-out", "x.json"},              // 0-based index
		{"-shard", "3/2", "-out", "x.json"},              // index beyond K
		{"-shard", "nonsense", "-out", "x.json"},         // unparsable
		{"-shard", "1/2/3", "-out", "x.json"},            // trailing garbage
		{"-shard", "1/2", "-all", "-out", "x.json"},      // -all conflict
		{"-shard", "1/2", "-out", "x.json", "-markdown"}, // formats belong to -merge
		{"-out", "x.json", "-run", "L3.2"},               // -out without -shard
		{"-merge", "x*.json", "-run", "L3.2"},            // -merge with selection
		{"-merge", "x*.json", "-seed", "9"},              // -merge with run config
		{"-merge", "no-such-file-*.json"},                // empty glob
	} {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestMergeRejectsMixedRuns merges two artifacts produced at different
// seeds and expects a loud header-mismatch error rather than silent junk.
func TestMergeRejectsMixedRuns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "shard_1.json")
	b := filepath.Join(dir, "shard_2.json")
	if err := run(io.Discard, []string{"-run", "L3.2", "-trials", "2", "-shard", "1/2", "-out", a}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"-run", "L3.2", "-trials", "2", "-seed", "9", "-shard", "2/2", "-out", b}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"-merge", filepath.Join(dir, "shard_*.json")}); err == nil {
		t.Fatal("merge of artifacts from different seeds accepted")
	}
}

// TestCPUProfile pins -cpuprofile and -memprofile: each profile is written
// in every mode (the CPU profile covers the whole invocation, the heap
// profile is taken after it), stdout is byte-identical with and without
// them, and a profile path that cannot be created is an error.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	for i, args := range [][]string{
		{"-run", "L3.2", "-trials", "2", "-csv"},
		{"-all", "-run", "2", "-trials", "2", "-markdown"},
		{"-list", "-run", "L3.2"},
	} {
		var plain bytes.Buffer
		if err := run(&plain, args); err != nil {
			t.Fatal(err)
		}
		for _, flag := range []string{"-cpuprofile", "-memprofile"} {
			var profiled bytes.Buffer
			path := filepath.Join(dir, fmt.Sprintf("%s%d.pprof", flag[1:], i))
			if err := run(&profiled, append([]string{flag, path}, args...)); err != nil {
				t.Fatalf("%s, args %v: %v", flag, args, err)
			}
			if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
				t.Errorf("args %v: stdout differs with %s:\n%s\nwant:\n%s", args, flag, profiled.String(), plain.String())
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s, args %v: profile %s missing or empty (%v)", flag, args, path, err)
			}
		}
	}
	bad := filepath.Join(dir, "no-such-dir", "prof.pprof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run(io.Discard, []string{flag, bad, "-list"}); err == nil {
			t.Fatalf("uncreatable %s path accepted", flag)
		}
	}
}
