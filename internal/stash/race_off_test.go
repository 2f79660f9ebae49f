//go:build !race

package stash

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of what is put back, so allocation counts of pooled
// paths mean nothing.
const raceEnabled = false
