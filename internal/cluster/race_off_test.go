//go:build !race

package cluster

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops entries at random, so allocation gates are skipped.
const raceEnabled = false
