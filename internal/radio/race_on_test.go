//go:build race

package radio

// raceEnabled reports a -race build. The race runtime drops sync.Pool items
// on purpose, so the allocation gates and the pool-reuse checks skip
// themselves under it.
const raceEnabled = true
