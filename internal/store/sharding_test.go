package store

import (
	"fmt"
	"hash/fnv"
	"net"
	"testing"

	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestShardOfMatchesFNV pins ShardOf to hash/fnv's 64-bit FNV-1a: the ring
// placement and the shard routing share one hash, and any change to it
// would silently re-home every key in every deployment.
func TestShardOfMatchesFNV(t *testing.T) {
	for _, key := range []string{"", "a", "user001234", "music_lock/x", "cn-a"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		for _, shards := range []int{1, 2, 4, 8, 13} {
			want := 0
			if shards > 1 {
				want = int(h.Sum64() % uint64(shards))
			}
			if got := ShardOf(key, shards); got != want {
				t.Fatalf("ShardOf(%q, %d) = %d, want %d", key, shards, got, want)
			}
		}
	}
}

// TestShardOfZeroAlloc guards the tentpole's "single-shard ops pay nothing"
// promise at its root: routing a key to a shard must not allocate.
func TestShardOfZeroAlloc(t *testing.T) {
	key := "user004217"
	if n := testing.AllocsPerRun(200, func() { _ = ShardOf(key, 8) }); n != 0 {
		t.Fatalf("ShardOf allocates %v times per call, want 0", n)
	}
}

// TestShardedEngineAndScan exercises a Shards > 1 cluster end to end: every
// key lands in its stripe, reads see writes, and a table scan merges keys
// across all stripes of every replica.
func TestShardedEngineAndScan(t *testing.T) {
	fixture(t, Config{Shards: 4}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		const n = 32
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("sk-%d", i)
			if err := cl.Put(tbl, key, val(key), Quorum); err != nil {
				t.Fatalf("Put %s: %v", key, err)
			}
		}
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("sk-%d", i)
			seen[ShardOf(key, 4)] = true
			row, err := cl.Get(tbl, key, Quorum)
			if err != nil || string(row["v"].Value) != key {
				t.Fatalf("Get %s = %v, %v", key, row, err)
			}
		}
		if len(seen) != 4 {
			t.Fatalf("32 keys hit %d/4 stripes", len(seen))
		}
		keys, err := cl.AllKeys(tbl)
		if err != nil {
			t.Fatalf("AllKeys: %v", err)
		}
		if len(keys) != n {
			t.Fatalf("AllKeys across stripes = %d keys, want %d", len(keys), n)
		}
	})
}

// TestShardedCASIndependentKeys checks the striped ballot/timestamp mints:
// CAS rounds on keys in different shards still linearize per key.
func TestShardedCASIndependentKeys(t *testing.T) {
	fixture(t, Config{Shards: 4}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("cas-%d", i)
			res, err := cl.CAS(tbl, key, []Cond{{Col: "v", Want: nil}}, val("first"))
			if err != nil || !res.Applied {
				t.Fatalf("CAS create %s: applied=%v err=%v", key, res.Applied, err)
			}
			res, err = cl.CAS(tbl, key, []Cond{{Col: "v", Want: []byte("first")}}, val("second"))
			if err != nil || !res.Applied {
				t.Fatalf("CAS update %s: applied=%v err=%v", key, res.Applied, err)
			}
			res, err = cl.CAS(tbl, key, []Cond{{Col: "v", Want: []byte("first")}}, val("third"))
			if err != nil || res.Applied {
				t.Fatalf("stale CAS %s: applied=%v err=%v, want condition failure", key, res.Applied, err)
			}
		}
	})
}

// TestCASVisibleToImmediateLocalRead is the regression test for the
// "fresh lockRef not granted" transport-bench flake: on a wall-clock
// runtime, a CAS's commit quorum can be satisfied by remote acks while the
// commit RPC to the coordinator's own replica is still in flight, so an
// immediately following ONE read — served self-first — used to miss the
// write. proposeCommit now applies the commit synchronously to the
// co-located replica before returning. The loop is the lock stack's exact
// shape (GenerateAndEnqueue's CAS followed by a local read-back) at the
// store level, over three nettrans nodes on 127.0.0.1, one store per node:
// the wall-clock shape the TCP benchmarks use.
func TestCASVisibleToImmediateLocalRead(t *testing.T) {
	sites := []string{"site-a", "site-b", "site-c"}
	rt := sim.NewReal(1)
	peers := make([]nettrans.Peer, len(sites))
	listeners := make([]net.Listener, len(sites))
	for i, site := range sites {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = lis
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: lis.Addr().String()}
	}
	var stores []*Cluster
	for i, p := range peers {
		tr, err := nettrans.New(rt, nettrans.Config{Self: p.ID, Peers: peers, Listener: listeners[i]})
		if err != nil {
			t.Fatalf("nettrans for %s: %v", p.Site, err)
		}
		defer tr.Close()
		stores = append(stores, New(tr, Config{RF: 3, LocalNodes: []transport.NodeID{p.ID}}))
	}
	cl := stores[0].Client(0)

	iters := 400
	if testing.Short() {
		iters = 80
	}
	for i := 0; i < iters; i++ {
		key := fmt.Sprintf("ryw-%d", i)
		res, err := cl.CAS(tbl, key, []Cond{{Col: "v", Want: nil}}, val("enq"))
		if err != nil || !res.Applied {
			t.Fatalf("CAS %s: applied=%v err=%v", key, res.Applied, err)
		}
		row, err := cl.Get(tbl, key, One)
		if err != nil {
			t.Fatalf("ONE read %s: %v", key, err)
		}
		if string(row["v"].Value) != "enq" {
			t.Fatalf("iteration %d: CAS invisible to immediate local ONE read (got %q)", i, row["v"].Value)
		}
	}
}
