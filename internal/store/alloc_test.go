package store

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Per-op allocation ceilings on the disabled-observability hot path,
// measured inside the deterministic virtual-time simulator (cooperative
// single-threaded scheduling makes AllocsPerRun exact, so these pin the
// whole coordinator+replica stack per op). The ceilings are the counts
// measured with simnet encoding into its records' own buffers, no Row map
// below Get, successes filtered in place and the static ring's replica sets
// built once (17, 25, 10; Go 1.24) plus 2 %, rounded up to a whole
// allocation: reintroducing the unconditional `table+"/"+key` span/history
// concats that used to run with tracing off costs 2+ allocs per op and
// fails here by name, and so does a map per row on the coordinator or
// replica path, a fresh buffer per message, or a replica slice per op.
const (
	putQuorumAllocCeiling = 18
	getQuorumAllocCeiling = 26
	getOneAllocCeiling    = 11
)

func TestAllocCeilingStoreOps(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		if err := cl.Put(tbl, "alloc-key", val("x"), Quorum); err != nil {
			t.Fatalf("warmup Put: %v", err)
		}
		put := testing.AllocsPerRun(50, func() {
			if err := cl.Put(tbl, "alloc-key", val("x"), Quorum); err != nil {
				panic(err)
			}
		})
		get := testing.AllocsPerRun(50, func() {
			if _, err := cl.Get(tbl, "alloc-key", Quorum); err != nil {
				panic(err)
			}
		})
		one := testing.AllocsPerRun(50, func() {
			if _, err := cl.Get(tbl, "alloc-key", One); err != nil {
				panic(err)
			}
		})
		t.Logf("allocs/op: Put(QUORUM) %v, Get(QUORUM) %v, Get(ONE) %v", put, get, one)
		check := func(op string, got float64, ceiling float64) {
			if got > ceiling {
				t.Errorf("%s allocates %v per op, ceiling %v — did a disabled-path span/history annotation lose its nil guard?", op, got, ceiling)
			}
		}
		check("Put(QUORUM)", put, putQuorumAllocCeiling)
		check("Get(QUORUM)", get, getQuorumAllocCeiling)
		check("Get(ONE)", one, getOneAllocCeiling)
	})
}
