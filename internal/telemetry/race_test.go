//go:build race

package telemetry

// The race detector changes what allocates, so allocation counts are not
// held under -race.
func init() { raceEnabled = true }
