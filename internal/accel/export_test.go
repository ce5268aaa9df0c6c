package accel

// SetFullKOff sets the fullKOff seam for the package's external tests and
// returns a function that restores the previous setting.
func SetFullKOff(off bool) (restore func()) {
	old := fullKOff
	fullKOff = off
	return func() { fullKOff = old }
}

// FullKWorkloads is fullKWorkloads for the external tests.
var FullKWorkloads = fullKWorkloads

// SetSweepReplayOff sets the sweepReplayOff seam for the package's
// external tests and returns a function that restores the previous
// setting.
func SetSweepReplayOff(off bool) (restore func()) {
	old := sweepReplayOff
	sweepReplayOff = off
	return func() { sweepReplayOff = old }
}

// SweepReplays returns how many J sweeps the PE level has replayed so far.
func SweepReplays() int64 { return sweepReplays.Load() }
