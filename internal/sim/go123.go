//go:build !go1.23

package sim

// The virtual runtime (virtual.go) runs its tasks as iter.Pull coroutines,
// which came with Go 1.23. On an older toolchain virtual.go is left out,
// and this file, first in name order, makes the build's first error say
// why.
var _ = sim_virtual_runtime_requires_go1_23
