//go:build race

package distmat

// The race detector changes what allocates, so allocation ceilings are
// not held under -race.
func init() { raceEnabled = true }
