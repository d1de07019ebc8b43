package store

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestTransferCatchUp drives the join path at the store layer: a cluster
// with a spare site outside the epoch-1 ring takes writes, membership
// advances to include the spare, and SyncLocal pulls exactly the rows the
// new placement assigns to the joiners. Reads served by the new replicas
// must return the pre-join values. In the second case a founding node is
// crashed when SyncLocal runs: no peer can fill it, but the joiner must
// still catch up in full, and the error must name the crashed node.
func TestTransferCatchUp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash bool // crash node 0 (ohio) before SyncLocal
	}{
		{"all up", false},
		{"founder crashed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := sim.New(11)
			net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs.Extend("ius+d", "site-d"), NodesPerSite: 1})
			// Nodes 0..2 are the founding sites; node 3 (site-d) runs services but
			// starts outside the ring.
			members := []RingNode{{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"}, {ID: 2, Site: "oregon"}}
			c := New(net, Config{RF: 3, Nodes: []simnet.NodeID{0, 1, 2, 3}, Members: members})

			if err := rt.Run(func() {
				cl := c.Client(0)
				const n = 200
				for i := 0; i < n; i++ {
					if err := cl.Put(tbl, fmt.Sprintf("key-%d", i), val(fmt.Sprintf("v%d", i)), Quorum); err != nil {
						t.Fatalf("Put: %v", err)
					}
				}
				if got := c.Epoch(); got != 1 {
					t.Fatalf("Epoch = %d, want 1", got)
				}

				// Epoch 2: site-d joins.
				grown := append(append([]RingNode{}, members...), RingNode{ID: 3, Site: "site-d"})
				c.ApplyMembership(2, grown)
				if got := c.Epoch(); got != 2 {
					t.Fatalf("Epoch after apply = %d, want 2", got)
				}
				// Stale epochs are ignored.
				c.ApplyMembership(1, members)
				if got := c.Epoch(); got != 2 {
					t.Fatalf("Epoch after stale apply = %d, want 2", got)
				}

				if tc.crash {
					net.Crash(0)
				}
				changed, err := c.SyncLocal(nil)
				switch {
				case tc.crash && (err == nil || !strings.Contains(err.Error(), "node 0:")):
					t.Fatalf("SyncLocal with node 0 crashed: err = %v, want one naming node 0", err)
				case !tc.crash && err != nil:
					t.Fatalf("SyncLocal: %v", err)
				}
				if changed == 0 {
					t.Fatal("SyncLocal moved no rows; the joiner received nothing")
				}

				// Every key the new placement puts on node 3 must now be readable
				// from node 3's local engine alone.
				owned := 0
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("key-%d", i)
					if !contains(c.ReplicasFor(key), 3) {
						continue
					}
					owned++
					row := c.replicas[3].dump(tbl, key)
					if got := string(row["v"].Value); got != fmt.Sprintf("v%d", i) {
						t.Fatalf("joiner copy of %s = %q, want v%d", key, got, i)
					}
				}
				if owned == 0 {
					t.Fatal("no keys placed on the joining site; rebalance did nothing")
				}
				if tc.crash {
					return
				}
				// A second sync is idempotent: everything already matches.
				changed, err = c.SyncLocal(nil)
				if err != nil {
					t.Fatalf("second SyncLocal: %v", err)
				}
				if changed != 0 {
					t.Fatalf("second SyncLocal changed %d rows, want 0 (transfer must be idempotent)", changed)
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestTransferWireRoundTrip pins the transfer payload codecs (ids 32/33).
func TestTransferWireRoundTrip(t *testing.T) {
	rt := sim.New(1)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs.Extend("ius+d", "site-d"), NodesPerSite: 1})
	members := []RingNode{{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"}, {ID: 2, Site: "oregon"}}
	c := New(net, Config{RF: 3, Nodes: []simnet.NodeID{0, 1, 2, 3}, Members: members})

	if err := rt.Run(func() {
		if err := c.Client(0).Put(tbl, "k", val("x"), All); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// PullFrom crosses the simulated network, which marshals through
		// the wire codecs; a decode mismatch would surface as an error or
		// a missing row.
		grown := append(append([]RingNode{}, members...), RingNode{ID: 3, Site: "site-d"})
		c.ApplyMembership(2, grown)
		if _, err := c.PullFrom(3, 0); err != nil {
			t.Fatalf("PullFrom: %v", err)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
