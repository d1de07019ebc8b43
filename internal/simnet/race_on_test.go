//go:build race

package simnet

// raceEnabled reports whether the race detector is compiled in; it changes
// allocation counts, so the alloc ceiling skips under it.
const raceEnabled = true
