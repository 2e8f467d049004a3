//go:build race

package serve

// Under the race detector sync.Pool drops a share of the values put back,
// so an allocation count that leans on a pool reads higher.
func init() { raceEnabled = true }
