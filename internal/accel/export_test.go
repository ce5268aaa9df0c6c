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
