package music

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRunCriticalIncrement(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		cl := c.Client("ohio")
		for i := 0; i < 3; i++ {
			err := cl.RunCritical("ctr", func(cs *CriticalSection) error {
				v, err := cs.Get()
				if err != nil {
					return err
				}
				n := 0
				if v != nil {
					n, _ = strconv.Atoi(string(v))
				}
				return cs.Put([]byte(strconv.Itoa(n + 1)))
			})
			if err != nil {
				t.Errorf("RunCritical %d: %v", i, err)
			}
		}
		got, err := cl.Get("ctr")
		if err != nil || string(got) != "3" {
			t.Errorf("final counter = (%q, %v), want 3", got, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestExplicitLockAPI(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		cl := c.Client("ncalifornia")
		ref, err := cl.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		if err := cl.AwaitLock("k", ref, 0); err != nil {
			t.Fatalf("AwaitLock: %v", err)
		}
		if err := cl.CriticalPut("k", ref, []byte("v")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		got, err := cl.CriticalGet("k", ref)
		if err != nil || string(got) != "v" {
			t.Fatalf("CriticalGet = (%q, %v)", got, err)
		}
		if err := cl.ReleaseLock("k", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestContendedCountersFromAllSites(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		done := make(chan error, 6) // plain channel is fine: sends never block
		for i := 0; i < 6; i++ {
			site := c.Sites()[i%3]
			c.Go(func() {
				cl := c.Client(site)
				done <- cl.RunCritical("ctr", func(cs *CriticalSection) error {
					v, err := cs.Get()
					if err != nil {
						return err
					}
					n := 0
					if v != nil {
						n, _ = strconv.Atoi(string(v))
					}
					return cs.Put([]byte(strconv.Itoa(n + 1)))
				})
			})
		}
		// Wait for all clients by polling the buffered channel length in
		// virtual time (channel receives would stall the simulator).
		deadline := c.Now() + 10*time.Minute
		for len(done) < 6 {
			if c.Now() > deadline {
				t.Fatal("clients did not finish")
			}
			c.Sleep(50 * time.Millisecond)
		}
		for i := 0; i < 6; i++ {
			if err := <-done; err != nil {
				t.Fatalf("client error: %v", err)
			}
		}
		got, err := c.Client("ohio").Get("ctr")
		if err != nil || string(got) != "6" {
			t.Fatalf("final counter = (%q, %v), want 6", got, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAwaitLockTimeout(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		cl := c.Client("ohio")
		ref1, _ := cl.CreateLockRef("k")
		if err := cl.AwaitLock("k", ref1, 0); err != nil {
			t.Fatalf("first AwaitLock: %v", err)
		}
		cl2 := c.Client("oregon")
		ref2, _ := cl2.CreateLockRef("k")
		err := cl2.AwaitLock("k", ref2, 2*time.Second)
		if !ErrAwaitTimeout(err) {
			t.Fatalf("err = %v, want await timeout", err)
		}
		_ = cl2.RemoveLockRef("k", ref2)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRunCriticalMultiLexicographicOrder(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		cl := c.Client("ohio")
		err := cl.RunCriticalMulti([]string{"zeta", "alpha"}, func(cs map[string]*CriticalSection) error {
			if len(cs) != 2 {
				return fmt.Errorf("sections = %d", len(cs))
			}
			if err := cs["alpha"].Put([]byte("a")); err != nil {
				return err
			}
			return cs["zeta"].Put([]byte("z"))
		})
		if err != nil {
			t.Fatalf("RunCriticalMulti: %v", err)
		}
		a, _ := cl.Get("alpha")
		z, _ := cl.Get("zeta")
		if string(a) != "a" || string(z) != "z" {
			t.Fatalf("values = %q, %q", a, z)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFailureInjectionPreemption(t *testing.T) {
	c := newTestCluster(t, WithT(500*time.Millisecond))
	err := c.Run(func() {
		cl1 := c.Client("ohio")
		ref1, _ := cl1.CreateLockRef("k")
		if err := cl1.AwaitLock("k", ref1, 0); err != nil {
			t.Fatalf("AwaitLock: %v", err)
		}
		if err := cl1.CriticalPut("k", ref1, []byte("before-crash")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		// The holder's whole site goes dark; a client elsewhere takes over
		// after the T-expiry reaping kicks in.
		c.CrashSite("ohio")
		cl2 := c.Client("oregon")
		err := cl2.RunCritical("k", func(cs *CriticalSection) error {
			v, err := cs.Get()
			if err != nil {
				return err
			}
			if string(v) != "before-crash" {
				return fmt.Errorf("lost latest state: %q", v)
			}
			return cs.Put([]byte("after-failover"))
		})
		if err != nil {
			t.Fatalf("failover critical section: %v", err)
		}
		c.RestartSite("ohio")
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPartitionedMinoritySiteCannotWrite(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		cl := c.Client("ohio")
		ref, _ := cl.CreateLockRef("k")
		if err := cl.AwaitLock("k", ref, 0); err != nil {
			t.Fatalf("AwaitLock: %v", err)
		}
		c.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
		err := cl.CriticalPut("k", ref, []byte("x"))
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("minority put err = %v, want ErrUnavailable", err)
		}
		c.Heal()
		if err := cl.CriticalPut("k", ref, []byte("x")); err != nil {
			t.Fatalf("put after heal: %v", err)
		}
		_ = cl.ReleaseLock("k", ref)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUnknownProfileRejected(t *testing.T) {
	if _, err := New(WithProfile("mars")); err == nil {
		t.Fatal("New with unknown profile succeeded")
	}
}

func TestUnknownSitePanics(t *testing.T) {
	c := newTestCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown site")
		}
	}()
	c.Client("atlantis")
}

func TestSitesListedInProfileOrder(t *testing.T) {
	c := newTestCluster(t)
	want := []string{"ohio", "ncalifornia", "oregon"}
	got := c.Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v, want %v", got, want)
		}
	}
}

func TestRunCriticalReleasesLockOnCallbackError(t *testing.T) {
	c := newTestCluster(t)
	err := c.Run(func() {
		cl := c.Client("ohio")
		boom := errors.New("boom")
		if err := cl.RunCritical("k", func(cs *CriticalSection) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		// The lock must be free for the next section.
		if err := cl.RunCritical("k", func(cs *CriticalSection) error { return nil }); err != nil {
			t.Fatalf("follow-up section: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
