//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// Puts at random, so pooled arenas are not reused reliably.
const raceEnabled = true
