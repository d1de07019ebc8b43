package store

import (
	"testing"
	"time"

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

func TestDigestReadMatchesFullRead(t *testing.T) {
	fixtureObs(t, Config{DigestReads: true}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, ob *obs.Obs) {
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", val("hello"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		row, err := cl.Get(tbl, "k", Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got := string(row["v"].Value); got != "hello" {
			t.Fatalf("Get = %q, want hello", got)
		}
		if n := counterTotal(ob, "store_digest_mismatch_total"); n != 0 {
			t.Fatalf("digest mismatches on converged replicas = %d, want 0", n)
		}
		// A digest quorum read moves one full payload plus 8-byte digests to
		// the coordinator — strictly less than the `need` full payloads of
		// the ordinary quorum path (puts count no read bytes, so the counter
		// is the read alone).
		digestBytes := counterTotal(ob, "store_read_bytes_total")
		size := int64(rowSize(row))
		if digestBytes < size || digestBytes >= 2*size {
			t.Fatalf("digest read moved %d coordinator bytes, want [%d, %d) — one payload plus digests", digestBytes, size, 2*size)
		}
	})
}

func TestDigestMismatchFallsBackAndRepairs(t *testing.T) {
	fixtureObs(t, Config{DigestReads: true, NoHintedHandoff: true}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, ob *obs.Obs) {
		const key = "k"
		targets := c.ReplicasFor(key)
		stale := targets[0]
		var writer simnet.NodeID = targets[1]

		// Make targets[0] stale: it misses a quorum write while crashed
		// (hinted handoff disabled), then restarts with its old state.
		net.Crash(stale)
		if err := c.Client(writer).Put(tbl, key, val("v2"), Quorum); err != nil {
			t.Fatalf("Put during crash: %v", err)
		}
		net.Restart(stale)

		// Reading with the stale node as coordinator serves the full data
		// from itself (nearest); the fresh replicas' digests disagree, so
		// the read must fall back to the full quorum path and still return
		// the new value.
		row, err := c.Client(stale).Get(tbl, key, Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got := string(row["v"].Value); got != "v2" {
			t.Fatalf("Get after mismatch = %q, want v2", got)
		}
		if n := counterTotal(ob, "store_digest_mismatch_total"); n == 0 {
			t.Fatal("expected store_digest_mismatch_total > 0")
		}
		// The fallback's read repair must converge the stale replica.
		rt.Sleep(2 * time.Second)
		dumped := c.replicas[stale].dump(tbl, key)
		if got := string(dumped["v"].Value); got != "v2" {
			t.Fatalf("stale replica after repair = %q, want v2", got)
		}
	})
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
		nearest := cl.byDistance(c.ReplicasFor(key))[0]
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
