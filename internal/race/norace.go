//go:build !race

// Package race reports whether the race detector is compiled in. The race
// detector drops sync.Pool items at random and adds allocations of its
// own, so the allocation-budget tests skip under it.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
