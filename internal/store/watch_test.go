package store

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// parkedWatches counts the watches sitting in a node's row lists.
func parkedWatches(c *Cluster, node simnet.NodeID) int {
	n := 0
	r := c.replicas[node]
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, rows := range s.tables {
			for _, rs := range rows {
				n += len(rs.watchers)
			}
		}
		s.mu.Unlock()
	}
	return n
}

func anyChange(RowView) bool { return true }

// A watch fires on the first applied change to its row — wherever the write
// was coordinated — and not on a write that is applied again without
// changing a cell (a retried put, a read repair of what is already there).
func TestWatchFiresOnChangeOnly(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		writer, watcher := c.Client(0), c.Client(2)
		first := Row{"v": Cell{Value: []byte("a"), TS: 10}}
		if err := writer.Put(tbl, "k", first, All); err != nil {
			t.Fatalf("Put: %v", err)
		}

		w := watcher.Watch(tbl, "k", anyChange, nil)
		if err := writer.Put(tbl, "k", first, All); err != nil {
			t.Fatalf("re-Put: %v", err)
		}
		if w.Wait(200 * time.Millisecond) {
			t.Fatalf("watch fired on a re-apply of identical cells")
		}
		if got := parkedWatches(c, 2); got != 1 {
			t.Fatalf("parked watches after an unfired wait = %d, want 1 (the watch stays armed)", got)
		}

		start := rt.Now()
		rt.Go(func() {
			rt.Sleep(50 * time.Millisecond)
			_ = writer.Put(tbl, "k", Row{"v": Cell{Value: []byte("b"), TS: 20}}, Quorum)
		})
		if !w.Wait(time.Second) {
			t.Fatalf("watch did not fire on a change to its row")
		}
		// Ohio → Oregon is 36 ms one way: the wake is the apply, not the timeout.
		if waited := rt.Now() - start; waited < 80*time.Millisecond || waited > 100*time.Millisecond {
			t.Errorf("woke %v after arming, want the write's send time plus one one-way delay (≈86 ms)", waited)
		}
		if !w.Wait(0) {
			t.Errorf("a fired watch stopped reporting fired")
		}
		if got := parkedWatches(c, 2); got != 0 {
			t.Errorf("parked watches after the fire = %d, want 0", got)
		}
	})
}

// A watch whose match does not hold of the changed row stays parked; the CAS
// commit path wakes watches like the plain apply path does.
func TestWatchMatchAndCommitPath(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(1)
		atLeast := func(n byte) func(RowView) bool {
			return func(row RowView) bool {
				v, ok := row.Live("v")
				return ok && len(v) == 1 && v[0] >= n
			}
		}
		low, high := cl.Watch(tbl, "k", atLeast(1), nil), cl.Watch(tbl, "k", atLeast(2), nil)
		if res, err := cl.CAS(tbl, "k", []Cond{{Col: "v"}}, Row{"v": Cell{Value: []byte{1}}}); err != nil || !res.Applied {
			t.Fatalf("CAS 1: %+v, %v", res, err)
		}
		if !low.Wait(0) {
			t.Errorf("the watch the commit satisfied did not fire")
		}
		if high.Wait(0) {
			t.Errorf("the watch the commit did not satisfy fired")
		}
		if res, err := cl.CAS(tbl, "k", []Cond{{Col: "v", Want: []byte{1}}}, Row{"v": Cell{Value: []byte{2}}}); err != nil || !res.Applied {
			t.Fatalf("CAS 2: %+v, %v", res, err)
		}
		if !high.Wait(0) {
			t.Errorf("the second commit did not fire the remaining watch")
		}
		if got := parkedWatches(c, 1); got != 0 {
			t.Errorf("parked watches = %d, want 0", got)
		}
	})
}

// Neither a timed-out wait followed by Cancel nor a Cancel alone leaves
// anything in the row's list, the gauge follows the list, and cancelling
// twice — or after the fire — is harmless.
func TestWatchCancelEmptiesTheTable(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		var parked obs.Gauge
		timedOut := cl.Watch(tbl, "k", anyChange, &parked)
		cancelled := cl.Watch(tbl, "k", anyChange, &parked)
		fired := cl.Watch(tbl, "k", anyChange, &parked)
		other := cl.Watch(tbl, "other", anyChange, &parked)
		if got := parkedWatches(c, 0); got != 4 || parked.Value() != 4 {
			t.Fatalf("parked = %d (gauge %d), want 4", got, parked.Value())
		}
		if timedOut.Wait(10 * time.Millisecond) {
			t.Fatalf("watch fired with no write")
		}
		timedOut.Cancel()
		cancelled.Cancel()
		cancelled.Cancel()
		if got := parkedWatches(c, 0); got != 2 || parked.Value() != 2 {
			t.Fatalf("after a timeout and a cancel: parked = %d (gauge %d), want 2", got, parked.Value())
		}
		if err := cl.Put(tbl, "k", val("x"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if !fired.Wait(0) || cancelled.Wait(0) || timedOut.Wait(0) {
			t.Errorf("after the write: fired=%v cancelled=%v timedOut=%v, want only the live watch woken",
				fired.Wait(0), cancelled.Wait(0), timedOut.Wait(0))
		}
		fired.Cancel()
		other.Cancel()
		if got := parkedWatches(c, 0); got != 0 || parked.Value() != 0 {
			t.Errorf("at the end: parked = %d (gauge %d), want 0", got, parked.Value())
		}
		var none *Watch
		none.Cancel()
	})
}

// On a node that holds no replica of the row nothing will ever be applied:
// the watch parks nothing and its Wait is the sleep it replaced.
func TestWatchWithoutLocalReplicaIsASleep(t *testing.T) {
	rt := sim.New(7)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, NodesPerSite: 2})
	c := New(net, Config{})
	err := rt.Run(func() {
		coord := simnet.NodeID(0)
		key := ""
		for i := 0; key == ""; i++ {
			if k := string(rune('a' + i)); !contains(c.ReplicasFor(k), coord) {
				key = k
			}
		}
		cl := c.Client(coord)
		w := cl.Watch(tbl, key, anyChange, nil)
		rt.Go(func() { _ = cl.Put(tbl, key, val("x"), All) })
		start := rt.Now()
		if w.Wait(300 * time.Millisecond) {
			t.Errorf("a watch with no local replica fired")
		}
		if slept := rt.Now() - start; slept != 300*time.Millisecond {
			t.Errorf("Wait returned after %v, want the full 300ms", slept)
		}
		w.Cancel()
		if got := parkedWatches(c, coord); got != 0 {
			t.Errorf("parked watches on the replica-less node = %d, want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
