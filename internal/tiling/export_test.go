package tiling

// SetBlockEdge makes every summary built until restore is called use
// block edge s, whatever its extents; s < 1 restores the extent rule.
// Package tiling's external tests force a block edge through it into the
// grids other packages build.
func SetBlockEdge(s int) (restore func()) {
	old := forcedBlockEdge
	forcedBlockEdge = s
	return func() { forcedBlockEdge = old }
}
