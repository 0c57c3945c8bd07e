//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its items on purpose and allocation counts say nothing.
const raceEnabled = true
