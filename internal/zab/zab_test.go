package zab

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// recorder gathers applied txns per server.
type recorder struct {
	mu      sync.Mutex
	applied map[simnet.NodeID][]uint64
}

func (r *recorder) apply(id simnet.NodeID, txn Txn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applied[id] = append(r.applied[id], txn.Zxid)
}

func (r *recorder) seq(id simnet.NodeID) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.applied[id]...)
}

func fixture(t *testing.T, fn func(rt *sim.Virtual, net *simnet.Network, c *Cluster, rec *recorder)) {
	t.Helper()
	rt := sim.New(4)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	rec := &recorder{applied: make(map[simnet.NodeID][]uint64)}
	c, err := New(net, Config{Apply: rec.apply})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Run(func() { fn(rt, net, c, rec) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSubmitCommitsInOrder(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, rec *recorder) {
		for i := 0; i < 5; i++ {
			zxid, err := c.Submit(0, i, 10)
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			if zxid != uint64(i+1) {
				t.Fatalf("zxid = %d, want %d", zxid, i+1)
			}
		}
		rt.Sleep(2 * time.Second)
		for _, id := range net.Nodes() {
			got := rec.seq(id)
			if len(got) != 5 {
				t.Fatalf("server %d applied %d, want 5", id, len(got))
			}
			for i, z := range got {
				if z != uint64(i+1) {
					t.Fatalf("server %d applied out of order: %v", id, got)
				}
			}
		}
	})
}

func TestFollowerSubmitForwardsToLeader(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, rec *recorder) {
		if c.Leader() != 0 {
			t.Fatalf("leader = %d, want 0", c.Leader())
		}
		start := rt.Now()
		if _, err := c.Submit(2, "x", 10); err != nil {
			t.Fatalf("Submit via follower: %v", err)
		}
		followerLat := rt.Now() - start

		start = rt.Now()
		if _, err := c.Submit(0, "y", 10); err != nil {
			t.Fatalf("Submit via leader: %v", err)
		}
		leaderLat := rt.Now() - start
		if followerLat <= leaderLat {
			t.Fatalf("follower submit %v not slower than leader submit %v", followerLat, leaderLat)
		}
	})
}

func TestConcurrentSubmitsPipelineAndStayOrdered(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, rec *recorder) {
		done := sim.NewMailbox[error](rt)
		const n = 30
		start := rt.Now()
		for i := 0; i < n; i++ {
			from := simnet.NodeID(i % 3)
			rt.Go(func() {
				_, err := c.Submit(from, "data", 10)
				done.Send(err)
			})
		}
		for i := 0; i < n; i++ {
			if err, recvErr := done.RecvTimeout(time.Minute); recvErr != nil || err != nil {
				t.Fatalf("submit %d: %v / %v", i, err, recvErr)
			}
		}
		elapsed := rt.Now() - start
		// Pipelined: far below n sequential round trips.
		if elapsed > 2*time.Second {
			t.Fatalf("30 submits took %v, want pipelined ≪ 30 RTTs", elapsed)
		}
		rt.Sleep(2 * time.Second)
		// Every server applies the identical zxid sequence.
		ref := rec.seq(0)
		if len(ref) != n {
			t.Fatalf("leader applied %d, want %d", len(ref), n)
		}
		for _, id := range net.Nodes()[1:] {
			got := rec.seq(id)
			if len(got) != len(ref) {
				t.Fatalf("server %d applied %d, want %d", id, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("server %d order differs at %d", id, i)
				}
			}
		}
	})
}

func TestSubmitFailsWithoutQuorum(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, rec *recorder) {
		net.Crash(1)
		net.Crash(2)
		if _, err := c.Submit(0, "x", 10); err == nil {
			t.Fatal("submit succeeded without a follower quorum")
		}
	})
}

func TestFsyncSerializesLargeProposals(t *testing.T) {
	// With per-proposal txn-log fsync, many concurrent large submissions
	// queue behind the leader's disk: throughput caps near 1/fsync.
	rt := sim.New(4)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	c, err := New(net, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.costs.FsyncBase = 2 * time.Millisecond
	if err := rt.Run(func() {
		done := sim.NewMailbox[error](rt)
		const n = 100
		start := rt.Now()
		for i := 0; i < n; i++ {
			rt.Go(func() {
				_, err := c.Submit(0, "x", 10)
				done.Send(err)
			})
		}
		for i := 0; i < n; i++ {
			if err, recvErr := done.RecvTimeout(2 * time.Minute); recvErr != nil || err != nil {
				t.Fatalf("submit: %v / %v", err, recvErr)
			}
		}
		elapsed := rt.Now() - start
		// 100 proposals × 2ms serialized fsync ≈ 200ms lower bound.
		if elapsed < 200*time.Millisecond {
			t.Fatalf("100 submits with 2ms fsync took %v, want ≥200ms", elapsed)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAppliedTracksCommits(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *Cluster, rec *recorder) {
		if got := c.Applied(0); got != 0 {
			t.Fatalf("initial applied = %d", got)
		}
		if _, err := c.Submit(0, "x", 10); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if got := c.Applied(0); got != 1 {
			t.Fatalf("applied = %d, want 1", got)
		}
	})
}
