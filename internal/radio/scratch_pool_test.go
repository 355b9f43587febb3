package radio

import (
	"runtime"
	"testing"
)

func TestScratchClass(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, scratchMinClass},
		{64, scratchMinClass},
		{65, 7},
		{100, 7},
		{128, 7},
		{129, 8},
		{1 << scratchMaxClass, scratchMaxClass},
		{1<<scratchMaxClass + 1, scratchMaxClass + 1},
	}
	for _, c := range cases {
		if got := scratchClass(c.n); got != c.want {
			t.Errorf("scratchClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestScratchPoolClasses pins the size-class pooling contract: same-class
// checkouts reuse the released scratch, and oversized scratches are never
// pooled.
func TestScratchPoolClasses(t *testing.T) {
	// sync.Pool reuse is only deterministic on a single P (per-P private
	// slot, no GC between Put and Get).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Same class (7 covers 65..128): the released scratch comes straight
	// back, regrown for the new n.
	s1 := getScratch(100)
	if s1.class != 7 {
		t.Fatalf("getScratch(100).class = %d, want 7", s1.class)
	}
	putScratch(s1)
	s2 := getScratch(128)
	// The race runtime drops sync.Pool items on purpose, so reuse is only
	// checked in a normal build.
	if s2 != s1 && !raceEnabled {
		t.Errorf("same-class checkout did not reuse the pooled scratch")
	}
	if len(s2.tally) != 128 {
		t.Errorf("reused scratch sized for %d nodes, want 128", len(s2.tally))
	}

	// Different class: a class-12 checkout must not see the class-7 scratch.
	putScratch(s2)
	s3 := getScratch(4096)
	if s3 == s2 {
		t.Errorf("cross-class checkout returned a scratch from another class pool")
	}
	if s3.class != 12 {
		t.Errorf("getScratch(4096).class = %d, want 12", s3.class)
	}
	putScratch(s3)

	// Million-node trials land in the top pooled class (the PR 9 huge-class
	// policy: SCALE-n at n = 10⁶ must reuse its slabs across trials instead
	// of churning ~50 MB of fresh allocation per trial).
	mega := getScratch(1_000_000)
	if mega.class != 20 {
		t.Fatalf("getScratch(1e6).class = %d, want 20", mega.class)
	}
	putScratch(mega)
	mega2 := getScratch(1 << 20)
	if mega2 != mega && !raceEnabled {
		t.Errorf("million-node checkout did not reuse the pooled class-20 scratch")
	}
	putScratch(mega2)

	// Oversized (beyond scratchMaxClass): never pooled in either direction.
	huge := getScratch(1<<scratchMaxClass + 1)
	if huge.class != -1 {
		t.Fatalf("oversized scratch class = %d, want -1", huge.class)
	}
	putScratch(huge)
	huge2 := getScratch(1<<scratchMaxClass + 1)
	if huge2 == huge {
		t.Errorf("oversized scratch was pooled; it must go to the GC")
	}
}

// TestEndedExecutionReturnsScratch pins the resumable execution's side of
// pooling: a finished or closed execution hands its scratch back, and the
// next execution of its class checks the same one out; ending or advancing
// it again does nothing, so it never steps on a scratch it gave back.
func TestEndedExecutionReturnsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{Net: lineDual(100), Algorithm: coinAlg{p: 0.2}, Spec: Spec{Problem: GlobalBroadcast, Source: 0}, MaxRounds: 60}
	for name, end := range map[string]func(*Execution){
		"finished": func(x *Execution) { x.Finish() },
		"closed":   (*Execution).Close,
	} {
		x, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := x.sc
		x.Advance(10)
		end(x)
		if x.sc != nil {
			t.Errorf("%s: the execution still holds its scratch", name)
		}
		x.Close()
		if x.Advance(20); x.next != 10 {
			t.Errorf("%s: an ended execution advanced to round %d", name, x.next)
		}
		y, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if y.sc != sc {
			t.Errorf("%s: the next execution did not reuse the ended one's scratch", name)
		}
		y.Close()
	}
}

// TestPooledScratchDropsLargerRun pins grow's clear of the per-node
// interface views past n: a 1000-node run and then a 600-node run share a
// class-10 scratch, and once the second run hands it back, no entry of
// probers or bulkSteps past 600 may still hold the first run's processes.
func TestPooledScratchDropsLargerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := Spec{Problem: GlobalBroadcast, Source: 0}
	var scs []*scratch
	for _, n := range []int{1000, 600} {
		x, err := Start(Config{Net: lineDual(n), Algorithm: batchAlg{p: 0.5}, Spec: spec, MaxRounds: 20})
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, x.sc)
		x.Advance(20)
		x.Finish()
	}
	sc := scs[1]
	if sc != scs[0] || sc.class != 10 {
		t.Fatalf("the 600-node run did not reuse the 1000-node run's class-10 scratch")
	}
	for name, tail := range map[string]int{
		"probers":   countNonNil(sc.probers[600:cap(sc.probers)]),
		"bulkSteps": countNonNil(sc.bulkSteps[600:cap(sc.bulkSteps)]),
	} {
		if tail != 0 {
			t.Errorf("%s holds %d non-nil entries past n = 600 in the pooled scratch", name, tail)
		}
	}
}

// countNonNil counts the non-nil entries of s.
func countNonNil[T comparable](s []T) int {
	var zero T
	k := 0
	for _, v := range s {
		if v != zero {
			k++
		}
	}
	return k
}
