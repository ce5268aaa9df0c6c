//go:build !race

package accel

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
