//go:build race

package sched

// Under the race detector sync.Pool drops a share of its Puts on purpose, so
// allocation pins that lean on a pool cannot hold.
func init() { raceEnabled = true }
