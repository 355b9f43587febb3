//go:build race

package adversary

// raceEnabled reports a -race build. The race runtime drops sync.Pool items
// on purpose, so the allocation gates skip themselves under it.
const raceEnabled = true
