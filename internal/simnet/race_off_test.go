//go:build !race

package simnet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
