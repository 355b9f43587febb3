package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ABL-permutation",
		"ABL-seeds",
		"ADV-churnwindow",
		"CHURN-broadcast",
		"CHURN-gossip",
		"EXT-contention",
		"EXT-derand",
		"EXT-gossip",
		"EXT-leader",
		"F1-oblivious-global",
		"F1-oblivious-local-general",
		"F1-oblivious-local-geo",
		"F1-offline-global",
		"F1-offline-local",
		"F1-online-global",
		"F1-online-local",
		"F1-static-global",
		"F1-static-local",
		"L3.2-hitting",
		"L4.2-permdecay",
		"SCALE-n",
		"T3.1-reduction",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" || e.PaperClaim == "" {
			t.Fatalf("experiment %q incompletely registered", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("F1-static-global"); !ok {
		t.Fatal("known id not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestConfigTrials(t *testing.T) {
	if (Config{Quick: true}).trials() != 5 {
		t.Fatal("quick default trials")
	}
	if (Config{}).trials() != 15 {
		t.Fatal("full default trials")
	}
	if (Config{Trials: 2}).trials() != 2 {
		t.Fatal("explicit trials")
	}
}

// TestQuickExperiments runs every registered experiment in quick mode and
// requires a well-formed result AND a passing verdict: the quick scales are
// chosen so each experiment's shape criterion already holds.
func TestQuickExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(Config{Quick: true, Trials: 3})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			if res.Table == nil || res.Table.NumRows() == 0 {
				t.Fatal("empty result table")
			}
			if len(res.Notes) == 0 {
				t.Fatal("no notes")
			}
			last := res.Notes[len(res.Notes)-1]
			if !strings.HasPrefix(last, "PASS") && !strings.HasPrefix(last, "FAIL") {
				t.Fatalf("missing verdict note: %q", last)
			}
			if !res.Pass {
				t.Errorf("experiment did not match the paper's claim:\n%s\nnotes: %v", res.Table, res.Notes)
			}
			// Byte identity: an engine or harness change that is meant to
			// change cost only must leave every table and note as it was.
			// The digests are pinned on amd64 only, because Go may fuse a
			// floating-point multiply and add into one rounding on other
			// architectures (arm64, ppc64le, s390x), which can move a
			// printed digit without any change to the program.
			if runtime.GOARCH != "amd64" {
				return
			}
			if got := resultDigest(res); got != quickDigests[e.ID] {
				t.Errorf("output digest changed: got %s, pinned %s", got, quickDigests[e.ID])
			}
		})
	}
}

// resultDigest is the SHA-256 of a result's table as CSV followed by its
// notes, one per line.
func resultDigest(res *Result) string {
	h := sha256.New()
	io.WriteString(h, res.Table.CSV())
	for _, n := range res.Notes {
		io.WriteString(h, n)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quickDigests pins resultDigest of every experiment at Config{Quick: true,
// Trials: 3} on amd64 (see TestQuickExperiments).
var quickDigests = map[string]string{
	"ABL-permutation":            "f9e019f107ed2e63f68fadcae54e404af7cd5afb6194816f65fa5cfe439b8ad3",
	"ABL-seeds":                  "5c23de7277cd10385570fa6add1a5e6160279e6a7d1df81cb506a754aa4522b5",
	"ADV-churnwindow":            "a3c497a88b50931b916aaec28bdbaaaa2a3ae212165c2c481ee16d00f79e285f",
	"CHURN-broadcast":            "520094b652afce31e25c524caf1be7bc251a8a288bd106659e7accb488999ab0",
	"CHURN-gossip":               "258f581404d64250d29360a6284d41cf159bd2a6d15e6982280291278202fbce",
	"EXT-contention":             "99fa2ade0a5114c3cf7a9b1faf8877cf6c587105a5edd71aae3edfd0c5c8801a",
	"EXT-derand":                 "781ee3f619497c103756918cadb87271f96c6683cf171ca6ba55ee183d5cbb2f",
	"EXT-gossip":                 "d77f66fc8536fc29c79a22b9cc85ebcea4a7827dc5c87ac900f5a94de3546276",
	"EXT-leader":                 "165c19f75b8b8f9c4beeedff97001098c7a5c5482a6100e586791bea8c42cddb",
	"F1-oblivious-global":        "3052b66d92e2b545e233ff10e9b496bf3f1c920d6306988e33ff25adaf637482",
	"F1-oblivious-local-general": "6643ce6a92aec954a6f81cd19297e67511aa4d93ce71481533f019d9d7b97afb",
	"F1-oblivious-local-geo":     "3982ada30c4c64cc7ee1fa790f6b62fa861f86332343bc29e78a22428b982fdd",
	"F1-offline-global":          "68525e0fa5caa50518b65f949024f9fd934255c1f4f36139bed591ddeb214220",
	"F1-offline-local":           "d651b830f3aef2bbbd3713fedc7bf9b592a6caa3e3a72f5420c4cb1888c866bb",
	"F1-online-global":           "1c98c92584b50d32db65606e531259428c6cf406d29659f0af2532f70000e5a2",
	"F1-online-local":            "6c7be6776c8f7b3f245488e601923f6f42bd9436566592560c613345f1ec928e",
	"F1-static-global":           "65e02d2354e2a13361ff0f859a2f780c5fb9d8e6858dba0d1c02bf621ad632cf",
	"F1-static-local":            "6d64843420dc9a74984bac703ead768817dee3cd0faaeb359085096595f4c3f5",
	"L3.2-hitting":               "dc8e4a6a2e79600232adc5a46f97e21b5eb0990d47e257a2c2602c7f8faec2ea",
	"L4.2-permdecay":             "d5028def44d396552c230d6a404733e4e223d55d7c1eb7f42f48ae51dd20dfab",
	"SCALE-n":                    "79609c2178cb4b16e761572b51569c3263183bafcc2c399c8bf6ad61ac319be2",
	"T3.1-reduction":             "83a2ecfc485d9e37bdc664adc590f6cb4cf4fd631daccb008d00c7d3759051b7",
}
