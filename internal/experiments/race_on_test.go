//go:build race

package experiments

// raceEnabled reports a -race build. The race runtime drops sync.Pool items
// on purpose, so allocation totals under it are not the program's, and the
// allocation gates skip themselves under it.
const raceEnabled = true
