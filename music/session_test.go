package music

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
)

// sessionFaultSeeds returns the fault-campaign seed set for the session
// layer: MUSIC_FAULT_SEEDS (comma-separated, how scripts/check.sh pins the
// campaign) or a fixed default, trimmed under -short.
func sessionFaultSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("MUSIC_FAULT_SEEDS"); env != "" {
		var seeds []int64
		for _, part := range strings.Split(env, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("MUSIC_FAULT_SEEDS: bad seed %q: %v", part, err)
			}
			seeds = append(seeds, s)
		}
		return seeds
	}
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	return seeds
}

// timeSection runs one RunCritical over key and returns its duration.
func timeSection(t *testing.T, c *Cluster, cl *Client, key string, fn func(cs *CriticalSection) error) time.Duration {
	t.Helper()
	start := c.Now()
	if err := cl.RunCritical(key, fn); err != nil {
		t.Fatalf("RunCritical(%s): %v", key, err)
	}
	return c.Now() - start
}

// TestHolderCacheServesGets is the default session read path against the
// paper's Table I op: a section's cs.Get is served from the value the
// grant-time synchFlag quorum read piggybacked into the replica's grant
// record, saving one full WAN quorum round trip per Get over
// Client.CriticalGet while returning the same value.
func TestHolderCacheServesGets(t *testing.T) {
	c := newTestCluster(t, WithSeed(7), WithObservability())
	err := c.Run(func() {
		cl := c.Client("ohio")
		for _, key := range []string{"base", "fast"} {
			if err := cl.RunCritical(key, func(cs *CriticalSection) error {
				return cs.Put([]byte("v1"))
			}); err != nil {
				t.Fatalf("seed %s: %v", key, err)
			}
		}
		twoGets := func(get func(cs *CriticalSection) ([]byte, error)) func(cs *CriticalSection) error {
			return func(cs *CriticalSection) error {
				for i := 0; i < 2; i++ {
					v, err := get(cs)
					if err != nil {
						return err
					}
					if string(v) != "v1" {
						return fmt.Errorf("Get = %q, want v1", v)
					}
				}
				return nil
			}
		}
		base := timeSection(t, c, cl, "base", twoGets(func(cs *CriticalSection) ([]byte, error) {
			return cl.CriticalGet("base", cs.Ref())
		}))
		held := timeSection(t, c, cl, "fast", twoGets((*CriticalSection).Get))

		// Both session Gets are served by the held value (the first is seeded
		// by the grant's piggybacked read), so that section must be about two
		// IUs WAN quorum round trips (~54ms each) faster than the Table I one.
		if saved := base - held; saved < 80*time.Millisecond {
			t.Errorf("session section saved %v over %v Table I baseline, want >= 80ms (two quorum RTTs)", saved, base)
		}
		rung := func(name string) int64 {
			return c.Obs().Metrics().Counter("music_read_rung_total", obs.Labels{"site": "ohio", "rung": name}).Value()
		}
		if hits := rung("cache"); hits != 2 {
			t.Errorf("music_read_rung_total{site=ohio,rung=cache} = %v, want 2", hits)
		}
		if quorum := rung("quorum"); quorum != 2 {
			t.Errorf("music_read_rung_total{site=ohio,rung=quorum} = %v, want 2 (the Table I section)", quorum)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestBufferedCoalescesWrites is the write plane as a table, policy × script:
// under WriteSync every Put/Delete is its own store quorum write, under
// WriteBuffered a section's writes coalesce client-side into the one the
// flush issues — and either way the next holder reads the section's last
// write, a Get after a write echoes it (from core's held value under Sync,
// from the client-side buffer under Buffered), and the history checks.
func TestBufferedCoalescesWrites(t *testing.T) {
	const key = "k"
	type step func(t *testing.T, c *Cluster, cs *CriticalSection) error
	// storePuts counts the store's quorum writes of key's data row so far.
	storePuts := func(c *Cluster) int {
		n := 0
		for _, op := range c.History().Ops() {
			if op.Kind == history.KindStorePut && op.Key == core.DataTable+"/"+key {
				n++
			}
		}
		return n
	}
	put := func(v string) step {
		return func(_ *testing.T, _ *Cluster, cs *CriticalSection) error { return cs.Put([]byte(v)) }
	}
	del := func(_ *testing.T, _ *Cluster, cs *CriticalSection) error { return cs.Delete() }
	flush := func(_ *testing.T, _ *Cluster, cs *CriticalSection) error { return cs.Flush() }
	// get reads the section's own latest write back: the value as written,
	// noted with the rung that served it, with wantBufferedPuts store writes
	// issued so far under Buffered (Sync has issued one per write by then).
	get := func(want string, wantBufferedPuts int) step {
		return func(t *testing.T, c *Cluster, cs *CriticalSection) error {
			v, err := cs.Get()
			if err != nil || string(v) != want {
				return fmt.Errorf("in-section Get = (%q, %v), want %s", v, err, want)
			}
			wantNote := history.NoteCache
			if cs.policy == WriteBuffered {
				wantNote = history.NoteBuffer
				if got := storePuts(c); got != wantBufferedPuts {
					t.Errorf("store quorum writes before the Get = %d, want %d", got, wantBufferedPuts)
				}
			}
			ops := c.History().Ops()
			for i := len(ops) - 1; i >= 0; i-- {
				if ops[i].Kind == history.KindGet && ops[i].Key == key {
					if ops[i].Note != wantNote {
						t.Errorf("recorded get = %s, want note %q", ops[i], wantNote)
					}
					return nil
				}
			}
			return errors.New("no critical get recorded")
		}
	}
	// putThenReuse hands Put a slice and scribbles over it afterwards, as a
	// caller encoding into one scratch buffer does.
	putThenReuse := func(t *testing.T, _ *Cluster, cs *CriticalSection) error {
		buf := []byte("as-passed")
		if err := cs.Put(buf); err != nil {
			return err
		}
		copy(buf, "scribbled")
		return nil
	}

	for _, sc := range []struct {
		name              string
		steps             []step
		want              string // the next holder's read; "" = no value
		syncPuts, bufPuts int    // store quorum writes the section issues
	}{
		{name: "one put", steps: []step{put("a")}, want: "a", syncPuts: 1, bufPuts: 1},
		{name: "two puts", steps: []step{put("a"), put("b")}, want: "b", syncPuts: 2, bufPuts: 1},
		{name: "put+delete", steps: []step{put("a"), del}, want: "", syncPuts: 2, bufPuts: 1},
		{name: "put, flush, put", steps: []step{put("a"), flush, get("a", 1), put("b")}, want: "b", syncPuts: 2, bufPuts: 2},
		{name: "read-your-write before flush", steps: []step{put("a"), get("a", 0)}, want: "a", syncPuts: 1, bufPuts: 1},
		{name: "caller reuses its slice", steps: []step{putThenReuse, get("as-passed", 0)}, want: "as-passed", syncPuts: 1, bufPuts: 1},
	} {
		t.Run(sc.name, func(t *testing.T) {
			wantPuts := map[WritePolicy]int{WriteSync: sc.syncPuts, WriteBuffered: sc.bufPuts}
			took := map[WritePolicy]time.Duration{}
			for _, policy := range []WritePolicy{WriteSync, WriteBuffered} {
				t.Run(policy.String(), func(t *testing.T) {
					c := newTestCluster(t, WithSeed(7), WithHistory())
					err := c.Run(func() {
						took[policy] = timeSection(t, c, c.Client("ohio", WithWritePolicy(policy)), key, func(cs *CriticalSection) error {
							for _, st := range sc.steps {
								if err := st(t, c, cs); err != nil {
									return err
								}
							}
							return nil
						})
						if got := storePuts(c); got != wantPuts[policy] {
							t.Errorf("store quorum writes = %d, want %d", got, wantPuts[policy])
						}
						got, err := c.Client("oregon").RunCriticalRead(key)
						if err != nil || string(got) != sc.want {
							t.Errorf("next holder read = (%q, %v), want %q", got, err, sc.want)
						}
						if res := history.CheckECF(c.History().Ops()); len(res) > 0 {
							t.Errorf("history does not check: %v", res)
						}
					})
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
				})
			}
			// Each coalesced write is a WAN quorum round trip (~54ms from
			// ohio) the section no longer waits for.
			if n := sc.syncPuts - sc.bufPuts; n > 0 {
				if saved, want := took[WriteSync]-took[WriteBuffered], time.Duration(n)*50*time.Millisecond; saved < want {
					t.Errorf("buffered section saved %v over the sync one, want >= %v", saved, want)
				}
			}
		})
	}
}

// TestRunCriticalMultiDuplicateKeys pins the duplicate-key fix: repeated
// keys collapse to one lock instead of the second lockRef queuing behind the
// first and deadlocking the multi-key acquisition.
func TestRunCriticalMultiDuplicateKeys(t *testing.T) {
	c := newTestCluster(t, WithSeed(7))
	err := c.Run(func() {
		cl := c.Client("ohio")
		err := cl.RunCriticalMulti([]string{"a", "a", "b", "a"}, func(cs map[string]*CriticalSection) error {
			if len(cs) != 2 {
				return fmt.Errorf("sections = %d, want 2 (one per distinct key)", len(cs))
			}
			if err := cs["a"].Put([]byte("va")); err != nil {
				return err
			}
			return cs["b"].Put([]byte("vb"))
		})
		if err != nil {
			t.Fatalf("RunCriticalMulti with duplicate keys: %v", err)
		}
		a, _ := cl.Get("a")
		b, _ := cl.Get("b")
		if string(a) != "va" || string(b) != "vb" {
			t.Fatalf("values = %q, %q, want va, vb", a, b)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSessionFaultForcedReleaseInvalidatesCache: a forced release preempts
// the holder; its session reads must fail the local guard and surface the
// preemption instead of serving the stale held value.
func TestSessionFaultForcedReleaseInvalidatesCache(t *testing.T) {
	for _, seed := range sessionFaultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newTestCluster(t, WithSeed(seed))
			err := c.Run(func() {
				cl := c.Client("ohio")
				ref, err := cl.CreateLockRef("k")
				if err != nil {
					t.Fatalf("CreateLockRef: %v", err)
				}
				if err := cl.AwaitLock("k", ref, 0); err != nil {
					t.Fatalf("AwaitLock: %v", err)
				}
				cs := cl.newSection("k", ref)
				if err := cs.Put([]byte("mine")); err != nil {
					t.Fatalf("Put: %v", err)
				}
				if v, err := cs.Get(); err != nil || string(v) != "mine" {
					t.Fatalf("warm Get = (%q, %v)", v, err)
				}

				// A client elsewhere steals the lock and becomes the holder.
				thief := c.Client("oregon")
				if err := thief.ForcedRelease("k", ref); err != nil {
					t.Fatalf("ForcedRelease: %v", err)
				}
				ref2, _ := thief.CreateLockRef("k")
				if err := thief.AwaitLock("k", ref2, 0); err != nil {
					t.Fatalf("thief AwaitLock: %v", err)
				}
				c.Sleep(2 * time.Second) // dequeue replicates to ohio's peek

				v, err := cs.Get()
				if err == nil {
					t.Fatalf("preempted Get returned %q, want error", v)
				}
				if !errors.Is(err, ErrNoLongerLockHolder) {
					t.Fatalf("preempted Get err = %v, want ErrNoLongerLockHolder", err)
				}
				_ = thief.ReleaseLock("k", ref2)
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestSessionFaultExpiryInvalidatesCache: past the T bound the guard on a
// session read self-preempts with ErrExpired, never serving the held value
// of an expired section.
func TestSessionFaultExpiryInvalidatesCache(t *testing.T) {
	for _, seed := range sessionFaultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newTestCluster(t, WithSeed(seed), WithT(500*time.Millisecond))
			err := c.Run(func() {
				cl := c.Client("ohio")
				ref, err := cl.CreateLockRef("k")
				if err != nil {
					t.Fatalf("CreateLockRef: %v", err)
				}
				if err := cl.AwaitLock("k", ref, 0); err != nil {
					t.Fatalf("AwaitLock: %v", err)
				}
				cs := cl.newSection("k", ref)
				if _, err := cs.Get(); err != nil {
					t.Fatalf("warm Get: %v", err)
				}
				c.Sleep(time.Second) // overrun T
				if v, err := cs.Get(); !errors.Is(err, ErrExpired) {
					t.Fatalf("expired Get = (%q, %v), want ErrExpired", v, err)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestSessionFaultFailoverCarriesBufferedWrite: the write-behind buffer
// lives in the client, so when the holder's site is cut off between the
// buffered Put and the flush, the flush re-drives the same lockRef at a
// failover site and lands the buffered value there.
func TestSessionFaultFailoverCarriesBufferedWrite(t *testing.T) {
	for _, seed := range sessionFaultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newTestCluster(t, WithSeed(seed))
			err := c.Run(func() {
				cl := c.FailoverClient("ohio", WithWritePolicy(WriteBuffered))
				ref, err := cl.CreateLockRef("k")
				if err != nil {
					t.Fatalf("CreateLockRef: %v", err)
				}
				if err := cl.AwaitLock("k", ref, 0); err != nil {
					t.Fatalf("AwaitLock: %v", err)
				}
				cs := cl.newSection("k", ref)
				if err := cs.Put([]byte("buffered-survivor")); err != nil {
					t.Fatalf("buffered Put: %v", err)
				}
				c.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
				if err := cs.Flush(); err != nil {
					t.Fatalf("Flush across partition: %v", err)
				}
				if got := cl.Site(); got == "ohio" {
					t.Error("flush succeeded without leaving the partitioned site")
				}
				if err := cl.ReleaseLock("k", ref); err != nil {
					t.Fatalf("ReleaseLock: %v", err)
				}
				c.Heal()
				c.Sleep(2 * time.Second)
				got, err := c.Client("oregon").RunCriticalRead("k")
				if err != nil || string(got) != "buffered-survivor" {
					t.Errorf("final value = (%q, %v), want buffered-survivor", got, err)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestSessionFaultFailoverThereAndBackReadsQuorum: the held-read latch. A
// two-key section fails over ohio → ncalifornia on an op of key x, writes y
// there, and fails back to ohio, again on x. Ohio's grant record for y was
// never touched by a failed op, so it still holds the value from before the
// first failover — it never saw ncalifornia's write. The client is "at its
// granting site" again, yet y's Get must go to the store: a latch on the site
// name instead of the rebind count serves the stale "at-ohio" here.
func TestSessionFaultFailoverThereAndBackReadsQuorum(t *testing.T) {
	for _, seed := range sessionFaultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newTestCluster(t, WithSeed(seed), WithObservability())
			rung := func(name string) int64 {
				return c.Obs().Metrics().Counter("music_read_rung_total", obs.Labels{"site": "ohio", "rung": name}).Value()
			}
			err := c.Run(func() {
				cl := c.Client("ohio", WithFailoverSites("ncalifornia", "ohio"))
				// failOver cuts the client's site off and drives one write of x,
				// which exhausts its budget there and lands at the next site.
				failOver := func(x *CriticalSection, from, to string) error {
					var rest []string
					for _, s := range c.Sites() {
						if s != from {
							rest = append(rest, s)
						}
					}
					c.PartitionSites([]string{from}, rest)
					if err := x.Put([]byte("from-" + from)); err != nil {
						return fmt.Errorf("put across %s->%s: %w", from, to, err)
					}
					if got := cl.Site(); got != to {
						return fmt.Errorf("after failing over from %s the client is at %q, want %s", from, got, to)
					}
					c.Heal()
					c.Sleep(time.Second)
					return nil
				}
				err := cl.RunCriticalMulti([]string{"x", "y"}, func(cs map[string]*CriticalSection) error {
					x, y := cs["x"], cs["y"]
					if err := y.Put([]byte("at-ohio")); err != nil {
						return err
					}
					if v, err := y.Get(); err != nil || string(v) != "at-ohio" || rung("cache") != 1 {
						return fmt.Errorf("un-rebound Get = (%q, %v), %d held serves; want at-ohio from the held value", v, err, rung("cache"))
					}
					c.Sleep(time.Second) // the grant cells reach ncalifornia

					if err := failOver(x, "ohio", "ncalifornia"); err != nil {
						return err
					}
					if err := y.Put([]byte("at-ncal")); err != nil {
						return fmt.Errorf("put at ncalifornia: %w", err)
					}
					if err := failOver(x, "ncalifornia", "ohio"); err != nil {
						return err
					}

					before := rung("quorum")
					v, err := y.Get()
					if err != nil {
						return fmt.Errorf("Get back at ohio: %w", err)
					}
					if string(v) != "at-ncal" {
						return fmt.Errorf("Get back at ohio = %q, want at-ncal (ohio's record missed that write)", v)
					}
					if rung("quorum") != before+1 || rung("cache") != 1 {
						return fmt.Errorf("Get back at ohio: %d quorum reads (want %d), %d held serves (want 1)",
							rung("quorum"), before+1, rung("cache"))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
