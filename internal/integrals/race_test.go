//go:build race

package integrals

// The race detector changes what allocates, so the pair builder's
// allocation counts are not held under -race.
func init() { raceEnabled = true }
