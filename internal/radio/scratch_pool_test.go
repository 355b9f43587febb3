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
