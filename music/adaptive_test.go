package music

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestSiteLeaseServesPlainGets: under WithHolderLeases a certified grant
// issues the granting *site* a lease, so any client routed there — not just
// the holder's session — serves plain Gets locally, fresh with the section's
// own writes, for the lease window. The lease is revoked at release.
func TestSiteLeaseServesPlainGets(t *testing.T) {
	c := newTestCluster(t, WithSeed(7), WithObservability(), WithHolderLeases())
	serveCount := func() int64 {
		return c.Obs().Metrics().Counter("music_read_rung_total",
			obs.Labels{"site": "ohio", "rung": "lease"}).Value()
	}
	err := c.Run(func() {
		holder := c.Client("ohio")
		reader := c.Client("ohio") // a different client, same site
		if err := holder.RunCritical("acct", func(cs *CriticalSection) error {
			if err := cs.Put([]byte("v1")); err != nil {
				return err
			}
			v, err := reader.Get("acct")
			if err != nil {
				return err
			}
			if string(v) != "v1" {
				return fmt.Errorf("site-lease Get = %q, want v1", v)
			}
			// Section writes fold into the lease value immediately.
			if err := cs.Put([]byte("v2")); err != nil {
				return err
			}
			v, err = reader.Get("acct")
			if err != nil {
				return err
			}
			if string(v) != "v2" {
				return fmt.Errorf("site-lease Get after second put = %q, want v2", v)
			}
			return nil
		}); err != nil {
			t.Fatalf("RunCritical: %v", err)
		}
		inSection := serveCount()
		if inSection < 2 {
			t.Errorf("music_read_rung_total{site=ohio,rung=lease} = %v, want >= 2", inSection)
		}
		// Release revoked the lease: a post-section Get takes the ordinary
		// eventual path and the serve counter stays put.
		if _, err := reader.Get("acct"); err != nil {
			t.Fatalf("post-release Get: %v", err)
		}
		if after := serveCount(); after != inSection {
			t.Errorf("lease served after release: counter %v -> %v", inSection, after)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAdaptiveFlipUnderStaleness: with MutationStaleReads every adaptive weak
// read is served one write behind. The consistency monitor must detect the
// staleness, flip the site to QUORUM at the trip threshold, and accrue zero
// violations after the flip — the acceptance proof that the fallback
// restores consistency.
func TestAdaptiveFlipUnderStaleness(t *testing.T) {
	c := newTestCluster(t, WithSeed(11), WithAdaptiveReads())
	for _, site := range c.Sites() {
		c.Replica(site).SetMutation(core.MutationStaleReads)
	}
	err := c.Run(func() {
		cl := c.Client("ohio")
		mon := c.Monitor()
		if mon == nil {
			t.Fatal("Monitor() = nil with WithAdaptiveReads")
		}
		for i := 0; i < 8; i++ {
			val := []byte(fmt.Sprintf("v%d", i))
			if err := cl.RunCritical("acct", func(cs *CriticalSection) error {
				if err := cs.Put(val); err != nil {
					return err
				}
				wasFlipped := mon.Flipped("ohio")
				// The Table I op: the session's own cs.Get would be served by
				// the held value and never reach the monitored ONE rung.
				v, err := cl.CriticalGet("acct", cs.Ref())
				if err != nil {
					return err
				}
				// Pre-flip weak reads may legitimately trail one write under
				// the mutation (including the read that trips the flip);
				// reads issued after the flip must be exact quorum reads.
				if wasFlipped && string(v) != string(val) {
					return fmt.Errorf("post-flip Get = %q, want %q", v, val)
				}
				return nil
			}); err != nil {
				t.Fatalf("section %d: %v", i, err)
			}
		}
		if !mon.Flipped("ohio") {
			t.Fatal("monitor never flipped ohio to QUORUM under injected staleness")
		}
		if v := mon.Violations("ohio"); v == 0 {
			t.Error("monitor flipped with zero recorded violations")
		}
		if pf := mon.PostFlipViolations("ohio"); pf != 0 {
			t.Errorf("post-flip violations = %d, want 0", pf)
		}
		var found bool
		for _, st := range mon.Snapshot() {
			if st.Site == "ohio" {
				found = true
				if st.Level != "quorum" {
					t.Errorf("snapshot level = %q, want quorum", st.Level)
				}
			}
		}
		if !found {
			t.Error("snapshot missing site ohio")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAdaptiveCleanStaysWeak: without injected staleness the monitor never
// trips — adaptive mode keeps serving at ONE and records no violations.
func TestAdaptiveCleanStaysWeak(t *testing.T) {
	c := newTestCluster(t, WithSeed(13), WithAdaptiveReads())
	err := c.Run(func() {
		cl := c.Client("ohio")
		for i := 0; i < 6; i++ {
			val := []byte(fmt.Sprintf("v%d", i))
			if err := cl.RunCritical("acct", func(cs *CriticalSection) error {
				if err := cs.Put(val); err != nil {
					return err
				}
				v, err := cl.CriticalGet("acct", cs.Ref())
				if err != nil {
					return err
				}
				if string(v) != string(val) {
					return fmt.Errorf("Get = %q, want %q", v, val)
				}
				return nil
			}); err != nil {
				t.Fatalf("section %d: %v", i, err)
			}
		}
		mon := c.Monitor()
		if mon.Flipped("ohio") {
			t.Error("monitor flipped ohio on a clean run")
		}
		if v := mon.Violations("ohio"); v != 0 {
			t.Errorf("violations = %d on a clean run, want 0", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestClustersShareOneMonitor: clusters built over one network with one
// recorder end up with one staleness monitor, each registering the repair
// of the sites it hosts, and a stale weak read at a site starts exactly one
// quorum repair read of its key.
func TestClustersShareOneMonitor(t *testing.T) {
	rt := sim.New(1)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	rec := history.New(rt)
	nodes := net.Nodes()
	a, err := NewOverTransport(net, TransportConfig{LocalNodes: nodes[:1], History: rec, AdaptiveReads: true})
	if err != nil {
		t.Fatalf("NewOverTransport a: %v", err)
	}
	b, err := NewOverTransport(net, TransportConfig{LocalNodes: nodes[1:], History: rec, AdaptiveReads: true})
	if err != nil {
		t.Fatalf("NewOverTransport b: %v", err)
	}
	mon := a.Monitor()
	if mon == nil || b.Monitor() != mon {
		t.Fatalf("monitors: a %p, b %p; want one", mon, b.Monitor())
	}
	site := net.SiteOf(nodes[0])
	a.Replica(site).SetMutation(core.MutationStaleReads)
	// Weak reads go unrecorded, so the quorum reads of the data row are the
	// grant's seed and the repairs.
	quorumReads := func() int {
		n := 0
		for _, op := range rec.Ops() {
			if op.Kind == history.KindStoreGet && op.Key == core.DataTable+"/k" && op.Site == site {
				n++
			}
		}
		return n
	}
	err = a.Run(func() {
		cl := a.Client(site)
		ref, err := cl.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		if err := cl.AwaitLock("k", ref, time.Minute); err != nil {
			t.Fatalf("AwaitLock: %v", err)
		}
		for _, v := range []string{"a", "b"} {
			if err := cl.CriticalPut("k", ref, []byte(v)); err != nil {
				t.Fatalf("CriticalPut %s: %v", v, err)
			}
			before := quorumReads()
			got, err := cl.CriticalGet("k", ref)
			if err != nil {
				t.Fatalf("CriticalGet: %v", err)
			}
			a.Sleep(time.Second) // the repair's quorum read runs and ends
			repairs := quorumReads() - before
			switch v {
			case "a": // the stale swap has nothing remembered: fresh
				if string(got) != "a" || repairs != 0 {
					t.Fatalf("first weak read = %q with %d repairs, want a and none", got, repairs)
				}
			case "b": // served one write behind: one violation, one repair
				if string(got) != "a" || repairs != 1 {
					t.Fatalf("stale weak read = %q with %d repairs, want a and one", got, repairs)
				}
			}
		}
		if got := mon.Violations(site); got != 1 {
			t.Errorf("violations at %s = %d, want 1", site, got)
		}
		if err := cl.ReleaseLock("k", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// AdaptiveReads needs a recorder for its monitor to watch.
func TestAdaptiveReadsNeedHistory(t *testing.T) {
	net := simnet.New(sim.New(1), simnet.Config{Profile: simnet.ProfileIUs})
	if _, err := NewOverTransport(net, TransportConfig{AdaptiveReads: true}); err == nil {
		t.Fatal("NewOverTransport with AdaptiveReads and no History succeeded")
	}
}
