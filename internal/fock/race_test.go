//go:build race

package fock

// Tests too slow to run under the race detector skip themselves.
func init() { raceEnabled = true }
