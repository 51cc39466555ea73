//go:build race

package pipeline

// The race detector makes sync.Pool drop pooled items at random, so
// allocation ceilings on pooled scratch do not hold under -race.
func init() { raceEnabled = true }
