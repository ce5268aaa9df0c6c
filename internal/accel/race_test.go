//go:build race

package accel

// raceEnabled reports a race-detector build, in which sync.Pool.Put
// randomly drops items, so pooled-scratch allocation ceilings cannot hold.
const raceEnabled = true
