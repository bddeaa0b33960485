//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in;
// allocation ceilings skip under it (sync.Pool drops a quarter of the
// machines put back, and instrumented code allocates more).
const raceEnabled = true
