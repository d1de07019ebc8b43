package music

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lockstore"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// These tests pin the push half of the lock handoff: a waiter in AwaitLock
// wakes on the dequeue's commit being applied at its own site's replica, the
// 1→64 ms poll timer is the fallback, and an await leaves nothing parked
// behind it.

// acquirePolls is how many AcquireLock calls a site's replica has served.
func acquirePolls(c *Cluster, site string) int64 {
	return c.obs.Metrics().Histogram("music_op_latency",
		obs.Labels{"op": core.OpAcquirePeek.String(), "site": site}).Snapshot().N()
}

func wakes(c *Cluster, site, cause string) int64 {
	return c.obs.Metrics().Counter("music_await_wake_total", obs.Labels{"site": site, "cause": cause}).Value()
}

func parkedWatchers(c *Cluster, site string) int64 {
	return c.obs.Metrics().Gauge("lockstore_watchers", obs.Labels{"site": site}).Value()
}

// assertNothingParked fails if any site still has a watch in its lock store.
func assertNothingParked(t *testing.T, c *Cluster, when string) {
	t.Helper()
	for _, site := range c.Sites() {
		if n := parkedWatchers(c, site); n != 0 {
			t.Errorf("%s: lockstore_watchers{site=%s} = %d, want 0", when, site, n)
		}
	}
}

// recvVirtual waits for a value on a buffered channel from inside the
// simulator, where a blocking receive would stall the scheduler.
func recvVirtual[T any](t *testing.T, c *Cluster, ch chan T, what string) T {
	t.Helper()
	for deadline := c.Now() + 5*time.Minute; len(ch) == 0; c.Sleep(time.Millisecond) {
		if c.Now() > deadline {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	return <-ch
}

// heldKey has holder create and acquire a lock on key.
func heldKey(t *testing.T, holder *Client, key string) LockRef {
	t.Helper()
	ref, err := holder.CreateLockRef(key)
	if err != nil {
		t.Fatalf("holder CreateLockRef(%s): %v", key, err)
	}
	if err := holder.AwaitLock(key, ref, 0); err != nil {
		t.Fatalf("holder AwaitLock(%s): %v", key, err)
	}
	return ref
}

// TestHandoffWakesOnCommit: the time from the holder's ReleaseLock returning
// to a queued waiter's AwaitLock returning is set by the topology — the
// dequeue's commit reaching the waiter's replica, plus the grant's quorum
// read — not by where the release falls in the waiter's poll interval. The
// hold time is swept across the 64 ms interval so that no phase is lucky:
// polling alone is inside the bound on one or two of these offsets and tens
// of milliseconds outside it on the rest.
func TestHandoffWakesOnCommit(t *testing.T) {
	cases := []struct {
		name, holder, waiter string
		bound                time.Duration
	}{
		// N. California ↔ Oregon is 12.1 ms one way. The commit reaches
		// Oregon one delay after it is sent and its ack ends the release
		// one delay after that; the woken waiter's quorum read is a round
		// trip over the same link, so it returns one delay after the
		// release did.
		{"cross-site", "ncalifornia", "oregon", 15 * time.Millisecond},
		// Same site: the commit is applied next to the waiter as it is
		// sent, and the grant's quorum read overlaps the release's wait
		// for the commit's acks.
		{"same-site", "oregon", "oregon", 3 * time.Millisecond},
	}
	offsets := []time.Duration{0, 7, 13, 19, 29, 37, 43, 53, 61}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, WithObservability())
			err := c.Run(func() {
				holder, waiter := c.Client(tc.holder), c.Client(tc.waiter)
				for i, off := range offsets {
					key := fmt.Sprintf("handoff-%d", i)
					href := heldKey(t, holder, key)
					granted := make(chan time.Duration, 1)
					done := make(chan error, 1)
					c.Go(func() {
						ref, err := waiter.CreateLockRef(key)
						if err == nil {
							err = waiter.AwaitLock(key, ref, 0)
						}
						granted <- c.Now()
						if err == nil {
							err = waiter.ReleaseLock(key, ref)
						}
						done <- err
					})
					// The waiter is queued ≈220 ms in and at its 64 ms
					// ceiling ≈60 ms after that.
					c.Sleep(600*time.Millisecond + off*time.Millisecond)
					if err := holder.ReleaseLock(key, href); err != nil {
						t.Fatalf("holder ReleaseLock: %v", err)
					}
					released, pollsAtRelease := c.Now(), acquirePolls(c, tc.waiter)
					handoff := recvVirtual(t, c, granted, "the waiter's grant") - released
					polls := acquirePolls(c, tc.waiter) - pollsAtRelease
					t.Logf("hold +%dms: handoff %v, %d polls after the release", off, handoff, polls)
					if handoff > tc.bound {
						t.Errorf("hold +%dms: release returned → AwaitLock returned = %v, want ≤ %v", off, handoff, tc.bound)
					}
					if polls > 3 {
						t.Errorf("hold +%dms: the waiter polled AcquireLock %d times after the release, want ≤ 3", off, polls)
					}
					if err := recvVirtual(t, c, done, "the waiter's section"); err != nil {
						t.Fatalf("waiter: %v", err)
					}
				}
				if n := wakes(c, tc.waiter, "commit"); n < int64(len(offsets)) {
					t.Errorf("music_await_wake_total{site=%s,cause=commit} = %d over %d handoffs, want one each", tc.waiter, n, len(offsets))
				}
				assertNothingParked(t, c, "after the handoffs")
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestAwaitLockReturnsAtItsDeadline: the wait between polls is clamped to
// what is left of the timeout, so AwaitLock gives up at its deadline (plus
// the last local poll), not up to a whole backoff past it.
func TestAwaitLockReturnsAtItsDeadline(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		href := heldKey(t, c.Client("ohio"), "k")
		waiter := c.Client("oregon")
		ref, err := waiter.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		for _, timeout := range []time.Duration{5 * time.Millisecond, 100 * time.Millisecond, time.Second} {
			start := c.Now()
			err := waiter.AwaitLock("k", ref, timeout)
			took := c.Now() - start
			if !ErrAwaitTimeout(err) {
				t.Fatalf("AwaitLock(%v) behind a holder: %v, want a timeout", timeout, err)
			}
			if took < timeout || took > timeout+time.Millisecond {
				t.Errorf("AwaitLock(%v) returned after %v, want within 1ms past the deadline", timeout, took)
			}
		}
		if err := waiter.RemoveLockRef("k", ref); err != nil {
			t.Fatalf("RemoveLockRef: %v", err)
		}
		if err := c.Client("ohio").ReleaseLock("k", href); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestHandoffFallsBackToTimer: the wake is a hint layered on the poll loop,
// so where no commit can announce the handoff the loop still finds it.
func TestHandoffFallsBackToTimer(t *testing.T) {
	// A MUSIC replica coordinating through a store node that holds no
	// replica of the key: nothing is ever applied next to the waiter, its
	// watch parks nothing, and it acquires at its next poll.
	t.Run("no local replica of the key", func(t *testing.T) {
		c := newTestCluster(t, WithNodesPerSite(2), WithObservability())
		err := c.Run(func() {
			coord := c.replicas["ohio"].Node()
			key := ""
			for i := 0; key == ""; i++ {
				k := fmt.Sprintf("elsewhere-%d", i)
				local := false
				for _, id := range c.st.ReplicasFor(k) {
					local = local || id == coord
				}
				if !local {
					key = k
				}
			}
			holder, waiter := c.Client("ncalifornia"), c.Client("ohio")
			href := heldKey(t, holder, key)
			granted := make(chan time.Duration, 1)
			c.Go(func() {
				ref, err := waiter.CreateLockRef(key)
				if err == nil {
					err = waiter.AwaitLock(key, ref, 0)
				}
				if err != nil {
					t.Errorf("waiter: %v", err)
				}
				granted <- c.Now()
			})
			c.Sleep(600 * time.Millisecond)
			if n := parkedWatchers(c, "ohio"); n != 0 {
				t.Errorf("a waiter with no local replica parked %d watches", n)
			}
			if err := holder.ReleaseLock(key, href); err != nil {
				t.Fatalf("ReleaseLock: %v", err)
			}
			released := c.Now()
			// One poll interval, plus the grant's quorum read from Ohio.
			if handoff := recvVirtual(t, c, granted, "the waiter's grant") - released; handoff > 64*time.Millisecond+60*time.Millisecond {
				t.Errorf("handoff on the timer took %v, want within one poll interval and a quorum read", handoff)
			}
			if commit, timer := wakes(c, "ohio", "commit"), wakes(c, "ohio", "timer"); commit != 0 || timer == 0 {
				t.Errorf("music_await_wake_total at ohio: commit=%d timer=%d, want every wake a timer wake", commit, timer)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	})

	// The waiter's site is cut off while the release commits. Paxos commits
	// are not re-sent, so the waiter's replica goes on showing the old
	// holder; what rescues the waiter is the timer's other job, failure
	// detection: T after the grant its poll reaps the "expired" head, and the
	// reap's quorum rounds repair the local row.
	t.Run("partitioned through the commit", func(t *testing.T) {
		const T = 3 * time.Second
		c := newTestCluster(t, WithT(T), WithObservability())
		err := c.Run(func() {
			holder, waiter := c.Client("ncalifornia"), c.Client("oregon")
			href := heldKey(t, holder, "k")
			grantedAt := c.Now()
			if err := holder.CriticalPut("k", href, []byte("held")); err != nil {
				t.Fatalf("CriticalPut: %v", err)
			}
			got := make(chan string, 1)
			c.Go(func() {
				ref, err := waiter.CreateLockRef("k")
				if err == nil {
					err = waiter.AwaitLock("k", ref, 0)
				}
				if err != nil {
					t.Errorf("waiter: %v", err)
					got <- ""
					return
				}
				v, err := waiter.CriticalGet("k", ref)
				if err != nil {
					t.Errorf("waiter CriticalGet: %v", err)
				}
				got <- string(v)
				_ = waiter.ReleaseLock("k", ref)
			})
			c.Sleep(600 * time.Millisecond)
			c.PartitionSites([]string{"oregon"}, []string{"ohio", "ncalifornia"})
			if err := holder.ReleaseLock("k", href); err != nil {
				t.Fatalf("ReleaseLock across the partition: %v", err)
			}
			c.Sleep(300 * time.Millisecond)
			c.Heal()
			if v := recvVirtual(t, c, got, "the cut-off waiter's section"); v != "held" {
				t.Errorf("the waiter read %q, want the holder's write", v)
			}
			if waited := c.Now() - grantedAt; waited < T || waited > T+2*time.Second {
				t.Errorf("the cut-off waiter got the lock %v after the holder's grant, want T (%v) plus the reap", waited, T)
			}
			assertNothingParked(t, c, "after the reaped handoff")
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}

// TestAwaitLeavesNoWatchBehind: one watch per await, gone on every way out —
// grant, timeout, a dead lockRef.
func TestAwaitLeavesNoWatchBehind(t *testing.T) {
	const T = 2 * time.Second
	c := newTestCluster(t, WithT(T), WithObservability())
	err := c.Run(func() {
		// Grants: contended sections from every site.
		const clients, sections = 6, 3
		done := make(chan error, clients)
		for i := 0; i < clients; i++ {
			cl := c.Client(c.Sites()[i%3])
			c.Go(func() {
				for s := 0; s < sections; s++ {
					if err := cl.RunCritical("hot", func(cs *CriticalSection) error { return cs.Put([]byte("x")) }); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			})
		}
		for i := 0; i < clients; i++ {
			if err := recvVirtual(t, c, done, "the contended sections"); err != nil {
				t.Fatalf("contended section: %v", err)
			}
		}
		commits := int64(0)
		for _, site := range c.Sites() {
			commits += wakes(c, site, "commit")
		}
		if commits == 0 {
			t.Errorf("%d contended sections and not one await woke on a commit", clients*sections)
		}
		assertNothingParked(t, c, "after contended sections")

		// Timeout: the watch goes while the holder still holds.
		holder, waiter := c.Client("ohio"), c.Client("oregon")
		href := heldKey(t, holder, "k")
		ref, err := waiter.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		if err := waiter.AwaitLock("k", ref, 200*time.Millisecond); !ErrAwaitTimeout(err) {
			t.Fatalf("AwaitLock behind a holder: %v, want a timeout", err)
		}
		assertNothingParked(t, c, "after an await that timed out")

		// A dead lockRef: preempted while it waits, it is told so once its
		// replica has had OrphanTimeout to show it the queue without it.
		dead := make(chan error, 1)
		c.Go(func() { dead <- waiter.AwaitLock("k", ref, 0) })
		c.Sleep(100 * time.Millisecond)
		if n := parkedWatchers(c, "oregon"); n != 1 {
			t.Errorf("a waiting await parks %d watches, want 1", n)
		}
		if err := c.Client("ncalifornia").ForcedRelease("k", ref); err != nil {
			t.Fatalf("ForcedRelease of the waiter: %v", err)
		}
		if err := recvVirtual(t, c, dead, "the preempted waiter"); !errors.Is(err, ErrNoLongerLockHolder) {
			t.Fatalf("AwaitLock on a preempted lockRef: %v, want ErrNoLongerLockHolder", err)
		}
		assertNothingParked(t, c, "after an await that found its lockRef dead")
		if err := holder.ReleaseLock("k", href); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAwaitWatchMovesOnFailover: when the waiter's site dies under it the
// poll re-binds to another site, and the watch goes with it — moved, not
// copied — so the next handoff wakes the waiter where it now polls.
func TestAwaitWatchMovesOnFailover(t *testing.T) {
	// Every poll at the crashed site costs three 4 s RPC timeouts and the
	// failover comes after four of them: the holder must outlast that.
	c := newTestCluster(t, WithT(10*time.Minute), WithObservability())
	err := c.Run(func() {
		holder := c.Client("ohio")
		href := heldKey(t, holder, "k")
		mover := c.FailoverClient("ncalifornia")
		moved := make(chan time.Duration, 1)
		c.Go(func() {
			ref, err := mover.CreateLockRef("k")
			if err == nil {
				err = mover.AwaitLock("k", ref, 0)
			}
			if err != nil {
				t.Errorf("failover waiter: %v", err)
			}
			moved <- c.Now()
		})
		c.Sleep(400 * time.Millisecond)
		if n := parkedWatchers(c, "ncalifornia"); n != 1 {
			t.Fatalf("a waiting await parks %d watches, want 1", n)
		}
		c.CrashSite("ncalifornia")
		for deadline := c.Now() + 2*time.Minute; mover.Site() == "ncalifornia"; c.Sleep(10 * time.Millisecond) {
			if c.Now() > deadline {
				t.Fatalf("the waiter never failed over from its crashed site")
			}
		}
		c.Sleep(200 * time.Millisecond) // the re-bound poll re-arms before its next peek
		at := mover.Site()
		if here, there := parkedWatchers(c, at), parkedWatchers(c, "ncalifornia"); here != 1 || there != 0 {
			t.Errorf("after the failover: %d watches at %s, %d at ncalifornia — want the one watch moved", here, at, there)
		}
		if err := holder.ReleaseLock("k", href); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		released := c.Now()
		// At most Ohio → Oregon, 36 ms one way, then the grant's quorum read:
		// inside one poll interval only if the commit is what woke it.
		if handoff := recvVirtual(t, c, moved, "the failed-over waiter's grant") - released; handoff > 64*time.Millisecond {
			t.Errorf("handoff to the re-bound waiter took %v, want a commit wake at its new site", handoff)
		}
		if n := wakes(c, at, "commit"); n == 0 {
			t.Errorf("music_await_wake_total{site=%s,cause=commit} = 0 after the handoff", at)
		}
		assertNothingParked(t, c, "after the failed-over await")
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestHandoffOverTCPKeepsHoldersDisjoint runs the wake on real goroutines
// and real sockets (and, from scripts/check.sh, under -race): eight clients
// over three loopback nettrans nodes take fifty sections each on one key.
// Watches are armed, fired, re-armed and cancelled from client goroutines
// while transport goroutines apply commits under the same stripe locks; the
// holders' [AwaitLock returned, ReleaseLock called] intervals must stay
// disjoint and nothing may be left parked.
func TestHandoffOverTCPKeepsHoldersDisjoint(t *testing.T) {
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
	ob := obs.New(rt, obs.Options{})
	clusters := make([]*Cluster, len(sites))
	for i := range sites {
		tr, err := nettrans.New(rt, nettrans.Config{Self: peers[i].ID, Peers: peers, Listener: listeners[i], Obs: ob})
		if err != nil {
			t.Fatalf("nettrans for %s: %v", sites[i], err)
		}
		c, err := NewOverTransport(tr, TransportConfig{LocalNodes: []transport.NodeID{peers[i].ID}, Obs: ob})
		if err != nil {
			t.Fatalf("NewOverTransport for %s: %v", sites[i], err)
		}
		defer c.Close()
		clusters[i] = c
	}

	const clients, sections = 8, 50
	type held struct{ from, to time.Duration }
	var mu sync.Mutex
	var holds []held
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := clusters[i%len(clusters)]
		// Eight proposers on one lock row: give the lock-row CAS the retry
		// budget the contended benchmark workload gives it.
		cl := c.Client(sites[i%len(sites)], WithRetry(RetryPolicy{Attempts: 16}))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sections; s++ {
				ref, err := cl.CreateLockRef("hot")
				if err != nil {
					t.Errorf("client %d section %d: CreateLockRef: %v", i, s, err)
					return
				}
				if err := cl.AwaitLock("hot", ref, time.Minute); err != nil {
					q, _ := lockstore.New(c.st.Client(c.replicas[cl.Site()].Node())).Queue("hot")
					t.Errorf("client %d section %d: AwaitLock(%d): %v; queue now %+v", i, s, ref, err, q)
					return
				}
				from := rt.Now()
				err = cl.CriticalPut("hot", ref, []byte{byte(i), byte(s)})
				// Hold long enough for the others to queue up: on loopback a
				// section is shorter than the CreateLockRef before it, and a
				// run can otherwise go by without anyone ever waiting.
				time.Sleep(2 * time.Millisecond)
				to := rt.Now()
				if rerr := cl.ReleaseLock("hot", ref); err != nil || rerr != nil {
					t.Errorf("client %d section %d: put %v, release %v", i, s, err, rerr)
					return
				}
				mu.Lock()
				holds = append(holds, held{from, to})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(holds) != clients*sections {
		t.Fatalf("%d of %d sections completed", len(holds), clients*sections)
	}
	sort.Slice(holds, func(i, j int) bool { return holds[i].from < holds[j].from })
	for i := 1; i < len(holds); i++ {
		if holds[i].from < holds[i-1].to {
			t.Errorf("two holders at once: one held %v–%v, the next was granted at %v", holds[i-1].from, holds[i-1].to, holds[i].from)
		}
	}
	commits, timers := int64(0), int64(0)
	for _, site := range sites {
		commits += ob.Metrics().Counter("music_await_wake_total", obs.Labels{"site": site, "cause": "commit"}).Value()
		timers += ob.Metrics().Counter("music_await_wake_total", obs.Labels{"site": site, "cause": "timer"}).Value()
		if n := ob.Metrics().Gauge("lockstore_watchers", obs.Labels{"site": site}).Value(); n != 0 {
			t.Errorf("lockstore_watchers{site=%s} = %d after every await returned, want 0", site, n)
		}
	}
	// How many waits there are, and how they end, is up to the scheduler
	// here; TestHandoffWakesOnCommit is where a wake is owed.
	t.Logf("%d sections: %d waits ended by a commit, %d by the timer", len(holds), commits, timers)
}
