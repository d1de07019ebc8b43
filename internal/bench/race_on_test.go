//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; it changes
// allocation counts, so the alloc ceilings skip under it.
const raceEnabled = true
