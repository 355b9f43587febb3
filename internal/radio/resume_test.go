package radio_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
)

// A resumable execution must be Run cut into pieces: Start, any sequence of
// Advance calls that reaches the end, and Finish give Run's Result and the
// same recorded rounds. These tests cut fuzzed and tabled configurations at
// random round counts, including calls that advance nothing and calls past
// MaxRounds.

// resumeShape picks one configuration of the resume tests: the problem
// (global, local, gossip with an injection), the algorithm's stepping (bulk
// or Step dispatch), the link (none, an oblivious partial set, the
// presampling adversary, online flicker, offline jamming), an epoch
// schedule, a recorder, the delivery accelerator (clique cover or the
// bitmap plan) and IgnoreCompletion.
type resumeShape struct {
	problem    int // 0 global, 1 local, 2 gossip
	step       bool
	link       int // 0 none, 1 oblivious set, 2 presample, 3 online, 4 offline
	epochs     bool
	record     bool
	accel      int // 0 none, 1 clique cover, 2 bitmap
	ignoreDone bool
}

// resumeConfig builds the shape's configuration on an n-node substrate drawn
// from seed.
func resumeConfig(seed uint64, n int, sh resumeShape) radio.Config {
	var src bitrand.Source
	src.Reseed(seed)
	d := graph.AugmentDual(&src, graph.RingChords(&src, n, n/2), 2*n)
	cfg := radio.Config{Net: d, Seed: seed, MaxRounds: 40 + int(seed%90), IgnoreCompletion: sh.ignoreDone}

	switch sh.problem {
	case 0:
		cfg.Algorithm = core.DecayGlobal{}
		cfg.Spec = radio.Spec{Problem: radio.GlobalBroadcast, Source: int(seed % uint64(n))}
	case 1:
		cfg.Algorithm = core.Aloha{P: 0.25}
		cfg.Spec = radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, n / 3, 2 * n / 3}}
	default:
		// TDM gossip is no BulkStepper: it always takes Step dispatch.
		cfg.Algorithm = gossip.TDM{}
		cfg.Spec = radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{0, n / 2},
			Injections: []radio.Injection{{Source: n - 1, Round: 7}}}
	}
	if sh.step {
		cfg.Algorithm = radio.HideBulk(cfg.Algorithm)
	}

	switch sh.link {
	case 1:
		cfg.Link = fixedLink{graph.SelectNone{}}
		if edges := halfExtraEdges(d); len(edges) > 0 {
			cfg.Link = fixedLink{graph.NewSelectSet(edges)}
		}
	case 2:
		cfg.Link = adversary.Presample{C: 0.5, Floor: 1, Horizon: 30}
	case 3:
		cfg.Link = flickerLink{}
	case 4:
		cfg.Link = adversary.Jam{}
	}
	if sh.epochs {
		d2 := graph.AugmentDual(&src, graph.RingChords(&src, n, n), n)
		cfg.Net, cfg.Epochs = nil, []radio.Epoch{{Start: 0, Net: d}, {Start: 5, Net: d2}, {Start: 23, Net: d}}
	}
	if sh.record {
		cfg.Recorder = &radio.MemRecorder{}
	}
	switch sh.accel {
	case 1:
		cfg.UseCliqueCover = true
	case 2:
		cfg.Plan = radio.PlanBitmap
	}
	return cfg
}

// checkResume runs cfg whole and in chunks drawn from cuts, fails on any
// difference in the Result or the recorded rounds, and returns Run's Result.
// Each chunk advances by cuts' next value mod 13, less 2, so some calls
// advance nothing or ask for a count already run, until a call past
// MaxRounds ends the execution.
func checkResume(t *testing.T, cfg radio.Config, cuts *bitrand.Source) radio.Result {
	t.Helper()
	var wantRec, gotRec *radio.MemRecorder
	if cfg.Recorder != nil {
		wantRec, gotRec = &radio.MemRecorder{}, &radio.MemRecorder{}
		cfg.Recorder = wantRec
	}
	want, err := radio.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotRec != nil {
		cfg.Recorder = gotRec
	}
	x, err := radio.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	for to := 0; to <= cfg.MaxRounds; {
		to += cuts.Intn(13) - 2
		x.Advance(to)
		calls = append(calls, to)
	}
	got := x.Finish()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("advanced to %v: result differs from Run's:\n got:  %+v\n want: %+v", calls, got, want)
	}
	if wantRec == nil {
		return want
	}
	if len(gotRec.Rounds) != len(wantRec.Rounds) {
		t.Fatalf("advanced to %v: %d rounds recorded, Run recorded %d", calls, len(gotRec.Rounds), len(wantRec.Rounds))
	}
	for i, w := range wantRec.Rounds {
		g := gotRec.Rounds[i]
		if g.Round != w.Round || g.SelectorKind != w.SelectorKind ||
			!reflect.DeepEqual(g.Transmitters, w.Transmitters) || !reflect.DeepEqual(g.Deliveries, w.Deliveries) {
			t.Fatalf("advanced to %v: recorded round %d differs from Run's:\n got:  %+v\n want: %+v", calls, i, g, w)
		}
	}
	return want
}

func TestResumeMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		sh   resumeShape
	}{
		{"global", resumeShape{record: true}},
		{"global-ignore-done", resumeShape{ignoreDone: true, record: true}},
		{"global-step-clique", resumeShape{step: true, accel: 1}},
		{"local-bitmap-set", resumeShape{problem: 1, link: 1, accel: 2, record: true}},
		{"local-step-ignore-done", resumeShape{problem: 1, step: true, ignoreDone: true}},
		{"gossip-injection", resumeShape{problem: 2, record: true}},
		{"gossip-epochs-online", resumeShape{problem: 2, link: 3, epochs: true, record: true}},
		{"global-presample", resumeShape{link: 2, record: true}},
		{"global-presample-epochs-clique", resumeShape{link: 2, epochs: true, accel: 1}},
		{"global-offline-bitmap", resumeShape{link: 4, accel: 2, ignoreDone: true}},
		{"local-epochs-offline", resumeShape{problem: 1, link: 4, epochs: true, record: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				res := checkResume(t, resumeConfig(seed, 48+int(seed)*17, tc.sh), bitrand.New(seed))
				if res.Deliveries == 0 {
					t.Fatalf("seed %d: no deliveries, so the comparison is vacuous", seed)
				}
			}
		})
	}
}

// FuzzResume cuts fuzzed configurations — every resumeShape — at fuzzed
// round counts and compares them with Run. Wired into the CI fuzz-smoke
// job.
func FuzzResume(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(0), uint64(7))
	f.Add(uint64(2), uint16(90), uint16(0x1ff), uint64(8))
	f.Add(uint64(3), uint16(17), uint16(0x2a5), uint64(9))
	f.Add(uint64(4), uint16(200), uint16(0x15a), uint64(10))
	f.Fuzz(func(t *testing.T, seed uint64, n, shape uint16, cut uint64) {
		sh := resumeShape{
			problem:    int(shape % 3),
			step:       shape>>2&1 != 0,
			link:       int(shape>>3) % 5,
			epochs:     shape>>6&1 != 0,
			record:     shape>>7&1 != 0,
			accel:      int(shape>>8) % 3,
			ignoreDone: shape>>10&1 != 0,
		}
		checkResume(t, resumeConfig(seed, 8+int(n)%250, sh), bitrand.New(cut))
	})
}

// TestAdvanceAllocs is the //dglint:noalloc gate for Execution.Advance: once
// started, an execution advances without allocating, under no link, a
// committed partial set on the bitmap plan, and an epoch schedule.
func TestAdvanceAllocs(t *testing.T) {
	if radio.RaceEnabled {
		t.Skip("allocation gate: the race runtime allocates on its own")
	}
	for _, sh := range []resumeShape{
		{ignoreDone: true},
		{problem: 1, link: 1, accel: 2, ignoreDone: true},
		{problem: 2, epochs: true, ignoreDone: true},
	} {
		cfg := resumeConfig(5, 300, sh)
		cfg.MaxRounds = 1 << 20
		x, err := radio.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Past the epoch swaps, whose first delivery plan may build rows.
		rounds := 30
		x.Advance(rounds)
		got := testing.AllocsPerRun(50, func() {
			rounds += 8
			x.Advance(rounds)
		})
		x.Close()
		if got != 0 {
			t.Errorf("%+v: Advance allocs per 8 rounds = %v, want 0", sh, got)
		}
	}
}

// closeCounter is a committed schedule that counts its Close calls and
// fails the test if it is asked for a selection after one.
type closeCounter struct {
	t      *testing.T
	closed int
}

func (c *closeCounter) SelectorFor(r int) graph.EdgeSelector {
	if c.closed > 0 {
		c.t.Fatalf("round %d asked after Close", r)
	}
	return graph.SelectAll{}
}

func (c *closeCounter) Close() { c.closed++ }

// TestScheduleCloserClosedOnce pins the engine's side of the close
// contract: however an execution ends — Run solving early or running out,
// Finish, Close, Close twice — a committed ScheduleCloser is closed exactly
// once, after its last selection.
func TestScheduleCloserClosedOnce(t *testing.T) {
	for name, end := range map[string]func(radio.Config) error{
		"run": func(cfg radio.Config) error { _, err := radio.Run(cfg); return err },
		"run-out": func(cfg radio.Config) error {
			cfg.MaxRounds = 3
			_, err := radio.Run(cfg)
			return err
		},
		"finish": func(cfg radio.Config) error {
			x, err := radio.Start(cfg)
			if err == nil {
				x.Advance(4)
				x.Finish()
			}
			return err
		},
		"close-twice": func(cfg radio.Config) error {
			x, err := radio.Start(cfg)
			if err == nil {
				x.Advance(2)
				x.Close()
				x.Close()
			}
			return err
		},
	} {
		c := &closeCounter{t: t}
		cfg := resumeConfig(9, 64, resumeShape{})
		cfg.Link = scheduleOf{c}
		if err := end(cfg); err != nil {
			t.Fatal(err)
		}
		if c.closed != 1 {
			t.Errorf("%s: schedule closed %d times, want 1", name, c.closed)
		}
	}
}

// scheduleOf commits the schedule it holds.
type scheduleOf struct{ s radio.Schedule }

func (l scheduleOf) CommitSchedule(*radio.Env) radio.Schedule { return l.s }
