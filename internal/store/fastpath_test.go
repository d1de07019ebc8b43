package store

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// fixtureObs is fixture with the observability subsystem on, so tests can
// assert on the fast path's counters, and with two nodes per site so a
// coordinator is not always a replica of every key.
func fixtureObs(t *testing.T, cfg Config, fn func(rt *sim.Virtual, net *simnet.Network, c *Cluster, ob *obs.Obs)) {
	t.Helper()
	rt := sim.New(7)
	ob := obs.New(rt, obs.Options{})
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, NodesPerSite: 2, Obs: ob})
	c := New(net, cfg)
	if err := rt.Run(func() { fn(rt, net, c, ob) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func counterTotal(ob *obs.Obs, name string) int64 {
	var total int64
	for _, p := range ob.Metrics().Snapshot() {
		if p.Name == name {
			total += int64(p.Value)
		}
	}
	return total
}

func TestOneReadFallsBackToNextNearest(t *testing.T) {
	fixtureObs(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, ob *obs.Obs) {
		const key = "k"
		// Coordinate from a node outside the replica set so crashing the
		// nearest replica doesn't take the caller down with it.
		coord := simnet.NodeID(0)
		for contains(c.ReplicasFor(key), coord) {
			coord++
		}
		cl := c.Client(coord)
		if err := cl.Put(tbl, key, val("hello"), All); err != nil {
			t.Fatalf("Put: %v", err)
		}
		targets := c.ReplicasFor(key)
		cl.byDistance(targets)
		nearest := targets[0]
		net.Crash(nearest)

		row, err := cl.Get(tbl, key, One)
		if err != nil {
			t.Fatalf("ONE read with nearest replica down: %v (want fallback to next replica)", err)
		}
		if got := string(row["v"].Value); got != "hello" {
			t.Fatalf("ONE read = %q, want hello", got)
		}
		if n := counterTotal(ob, "store_one_fallbacks_total"); n == 0 {
			t.Fatal("expected store_one_fallbacks_total > 0")
		}

		// All replicas down: the read must still fail with ErrUnavailable.
		for _, id := range c.ReplicasFor(key) {
			net.Crash(id)
		}
		if _, err := cl.Get(tbl, key, One); err == nil {
			t.Fatal("ONE read with all replicas down succeeded")
		}
	})
}
