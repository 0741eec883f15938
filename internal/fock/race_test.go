//go:build race

package fock

// The race detector makes sync.Pool drop items at random, so allocation
// ceilings that rest on a pool are not held under -race.
func init() { raceEnabled = true }
