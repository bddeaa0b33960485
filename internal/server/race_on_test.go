//go:build race

package server

// raceEnabled reports whether the race detector is compiled in:
// allocation ceilings skip under it (sync.Pool drops items at random).
const raceEnabled = true
