//go:build !race

package radio

// raceEnabled reports a -race build; see race_on_test.go.
const raceEnabled = false
