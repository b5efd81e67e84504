//go:build race

package mgcfd

// The race detector makes sync.Pool drop items at random, so pooled
// scratch is reallocated and allocation counts are not meaningful.
func init() { raceEnabled = true }
