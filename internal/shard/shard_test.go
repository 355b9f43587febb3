package shard

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// testPlan is a two-experiment plan: exp-a declares 4 tasks, exp-b 2.
func testPlan() []ExperimentPlan {
	return []ExperimentPlan{{ID: "exp-a", Tasks: 4}, {ID: "exp-b", Tasks: 2}}
}

// testShard builds the artifact of shard index/count over testPlan with the
// round-robin partition the experiments runner uses (global task index mod
// count), recording each task's global index as its single value.
func testShard(index, count int) *Artifact {
	a := &Artifact{
		Version:  SchemaVersion,
		Shard:    index,
		Shards:   count,
		BaseSeed: 7,
		Quick:    true,
		Trials:   2,
		Plan:     testPlan(),
	}
	global := 0
	for _, p := range a.Plan {
		for i := 0; i < p.Tasks; i++ {
			if global%count == index-1 {
				a.Records = append(a.Records, TaskRecord{Exp: p.ID, Index: i, Vals: []float64{float64(global)}})
			}
			global++
		}
	}
	return a
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard_1.json")
	art := testShard(1, 2)
	if err := Write(path, art); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != art.Shard || got.Shards != art.Shards || got.BaseSeed != 7 ||
		!got.Quick || got.Trials != 2 || len(got.Records) != len(art.Records) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Equal artifacts serialize byte-identically (records are sorted, JSON
	// field order is fixed by the struct).
	path2 := filepath.Join(dir, "again.json")
	if err := Write(path2, testShard(1, 2)); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatal("equal artifacts serialized differently")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		mut  func(a *Artifact)
		want error
	}{
		{"version", func(a *Artifact) { a.Version = SchemaVersion + 1 }, ErrVersion},
		{"shard zero", func(a *Artifact) { a.Shard = 0 }, ErrMalformed},
		{"shard beyond count", func(a *Artifact) { a.Shard = 3 }, ErrMalformed},
		{"unplanned exp", func(a *Artifact) { a.Records[0].Exp = "ghost" }, ErrMalformed},
		{"index out of range", func(a *Artifact) { a.Records[0].Index = 99 }, ErrMalformed},
		{"negative tasks", func(a *Artifact) { a.Plan[0].Tasks = -1 }, ErrMalformed},
		{"duplicate plan row", func(a *Artifact) { a.Plan[1].ID = a.Plan[0].ID }, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testShard(2, 2)
			tc.mut(a)
			if err := a.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestMergeReassembles(t *testing.T) {
	m, err := Merge([]*Artifact{testShard(2, 3), testShard(1, 3), testShard(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	global := 0
	for _, p := range testPlan() {
		recs := m.Records(p.ID)
		if len(recs) != p.Tasks {
			t.Fatalf("%s: %d records, want %d", p.ID, len(recs), p.Tasks)
		}
		for i, r := range recs {
			if r.Index != i || r.Vals[0] != float64(global) {
				t.Fatalf("%s[%d] = %+v, want global %d in order", p.ID, i, r, global)
			}
			global++
		}
	}
}

func TestMergeValidation(t *testing.T) {
	mixedSeed := testShard(2, 2)
	mixedSeed.BaseSeed = 8
	mixedPlan := testShard(2, 2)
	mixedPlan.Plan = []ExperimentPlan{{ID: "exp-a", Tasks: 4}, {ID: "exp-c", Tasks: 2}}
	for i := range mixedPlan.Records {
		if mixedPlan.Records[i].Exp == "exp-b" {
			mixedPlan.Records[i].Exp = "exp-c"
		}
	}
	oldVersion := testShard(2, 2)
	oldVersion.Version = SchemaVersion + 1
	overlap := testShard(2, 2)
	overlap.Records = append(overlap.Records, testShard(1, 2).Records[0])
	gap := testShard(2, 2)
	gap.Records = gap.Records[1:]
	// A corrupt plan row claiming far more tasks than any artifact holds
	// must fail validation before anything is sized from it; so must rows
	// whose claims overflow an int when summed.
	huge := testShard(1, 1)
	huge.Plan[0].Tasks = 900000000000000
	overflow := testShard(1, 1)
	overflow.Plan[0].Tasks = math.MaxInt
	overflow.Plan[1].Tasks = math.MaxInt

	cases := []struct {
		name string
		arts []*Artifact
		want error
	}{
		{"empty", nil, ErrMissingShard},
		{"missing shard", []*Artifact{testShard(1, 2)}, ErrMissingShard},
		{"duplicate shard", []*Artifact{testShard(1, 2), testShard(1, 2)}, ErrDuplicateShard},
		{"version mismatch", []*Artifact{testShard(1, 2), oldVersion}, ErrVersion},
		{"seed mismatch", []*Artifact{testShard(1, 2), mixedSeed}, ErrHeaderMismatch},
		{"plan mismatch", []*Artifact{testShard(1, 2), mixedPlan}, ErrHeaderMismatch},
		{"task covered twice", []*Artifact{testShard(1, 2), overlap}, ErrDuplicateTask},
		{"task not covered", []*Artifact{testShard(1, 2), gap}, ErrMissingTask},
		{"plan claims huge task count", []*Artifact{huge}, ErrMissingTask},
		{"plan claims overflow", []*Artifact{overflow}, ErrMissingTask},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Merge(tc.arts); !errors.Is(err, tc.want) {
				t.Fatalf("Merge() = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzMerge feeds arbitrary bytes through the artifact decoder into Merge,
// the path every shard file and cache entry takes: Merge must never panic
// (a corrupt cache entry is read on the daemon's execute goroutine), and a
// successful merge must hold, per planned experiment, exactly its planned
// task count of records, entry i being task i.
func FuzzMerge(f *testing.F) {
	for _, a := range []*Artifact{testShard(1, 1), testShard(1, 2), testShard(2, 3)} {
		data, err := json.Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"shard":1,"shards":1,"plan":[{"id":"x","tasks":900000000000000}],"records":[{"exp":"x","index":0,"vals":[1]}]}`))
	f.Add([]byte(`{"version":1,"shard":1,"shards":1,"plan":[{"id":"x","tasks":1},{"id":"y","tasks":0}],"records":[{"exp":"x","index":0,"err":"boom"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Artifact
		if json.Unmarshal(data, &a) != nil {
			return
		}
		m, err := Merge([]*Artifact{&a})
		if err != nil {
			return
		}
		for _, p := range m.Plan {
			recs := m.Records(p.ID)
			if len(recs) != p.Tasks {
				t.Fatalf("%s: merged %d records for %d planned tasks", p.ID, len(recs), p.Tasks)
			}
			for i, r := range recs {
				if r.Index != i || r.Exp != p.ID {
					t.Fatalf("%s: entry %d holds task %s/%d", p.ID, i, r.Exp, r.Index)
				}
			}
		}
	})
}
