package music

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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
