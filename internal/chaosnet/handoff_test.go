package chaosnet_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

// TestStragglerHandoffOverTCP pins hinted handoff for a replica that is
// still outstanding when a quorum write returns, on the real message plane.
// Three processes' worth of store, one node each, over nettrans; once the
// connections are up, a partition black-holes Ohio↔Oregon, so the write's
// frame to node 2 is dropped on a live connection. Put(QUORUM) returns on
// nodes 0 and 1 with node 2's leg in flight — a straggler, reported by
// MulticastLate when its deadline passes. That report must start a handoff
// that lands once the partition heals. A straggler dropped instead of
// hinted leaves node 2 without the value for good.
func TestStragglerHandoffOverTCP(t *testing.T) {
	rt := sim.NewReal(7)
	const storeTimeout = 300 * time.Millisecond
	sched := chaosnet.Schedule{
		Seed:  7,
		Sites: testSites,
		Events: []chaosnet.Event{
			// Starts just after Start, so the warm-up dials are not refused.
			{At: 20 * time.Millisecond, For: 500 * time.Millisecond, Class: chaosnet.ClassPartition, A: "ohio", B: "oregon"},
		},
	}
	inj := chaosnet.NewInjector(rt, sched)

	lis := make([]net.Listener, len(testSites))
	peers := make([]nettrans.Peer, len(testSites))
	nodes := make([]transport.NodeID, len(testSites))
	for i, site := range testSites {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis[i] = l
		nodes[i] = transport.NodeID(i)
		peers[i] = nettrans.Peer{ID: nodes[i], Site: site, Addr: l.Addr().String()}
	}
	ob := obs.New(rt)
	clusters := make([]*store.Cluster, len(testSites))
	for i, site := range testSites {
		tr, err := nettrans.New(rt, nettrans.Config{
			Self: nodes[i], Peers: peers, Listener: lis[i],
			DialTimeout:  200 * time.Millisecond,
			BackoffFloor: 5 * time.Millisecond,
			BackoffCeil:  40 * time.Millisecond,
			Dial:         inj.Dial(site),
			Obs:          ob,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		clusters[i] = store.New(tr, store.Config{Nodes: nodes, LocalNodes: nodes[i : i+1], Timeout: storeTimeout})
	}
	coord, far := clusters[0].Client(0), clusters[2].Client(2)

	// An ALL write dials every connection the partitioned write will use.
	if err := coord.Put("t", "warm", store.Row{"v": {Value: []byte("w")}}, store.All); err != nil {
		t.Fatalf("warm-up Put(ALL): %v", err)
	}
	inj.Start()
	time.Sleep(30 * time.Millisecond)
	if !inj.Partitioned("ohio", "oregon") {
		t.Fatal("partition window not active")
	}
	if err := coord.Put("t", "k", store.Row{"v": {Value: []byte("v1")}}, store.Quorum); err != nil {
		t.Fatalf("Put(QUORUM) with one replica partitioned: %v", err)
	}
	if row, err := far.Get("t", "k", store.One); err != nil || len(row) != 0 {
		t.Fatalf("partitioned replica before heal = (%v, %v), want empty", row, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		row, err := far.Get("t", "k", store.One)
		if err == nil && string(row["v"].Value) == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 after heal = (%v, %v), want v1 via hinted handoff", row, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := ob.Metrics().Counter("store_handoffs_total", obs.Labels{"site": "ohio"}).Value(); n < 1 {
		t.Errorf("store_handoffs_total = %d, want ≥ 1", n)
	}
	if c := inj.Counts(); c.Drops == 0 {
		t.Errorf("the partition dropped no frames: %+v", c)
	}
}
