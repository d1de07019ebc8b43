package core

import (
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// leaseFixture is fixture with a config built after the runtime exists, so
// tests can attach a history recorder / monitor (both need the sim clock).
func leaseFixture(t *testing.T, mk func(rt *sim.Virtual) Config, fn func(w *world)) {
	t.Helper()
	rt := sim.New(11)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	st := store.New(net, store.Config{})
	w := &world{rt: rt, net: net, st: st}
	cfg := mk(rt)
	for i := 0; i < 3; i++ {
		w.rep[i] = NewReplica(st.Client(simnet.NodeID(i)), cfg)
	}
	if err := rt.Run(func() { fn(w) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// leaseRung reports what the read ladder's held rung serves a Table I reader
// of ref right now: ok only when the lease rung, not the store, served.
func leaseRung(r *Replica, key string, ref int64) (value []byte, present, ok bool) {
	value, present, rung, err := r.criticalRead(key, ref, tableIReader, nil)
	return value, present, err == nil && rung == rungLease
}

// A granted section's writes fold into the grant record, and any read routed
// to the holder site — the section's own CriticalGet or a plain Get from an
// unrelated client — serves locally until release revokes the lease.
func TestLeaseServesSiteReadsLocally(t *testing.T) {
	fixture(t, Config{Leases: true}, func(w *world) {
		r := w.rep[0]
		ref, err := r.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, r, "k", ref)
		if err := r.CriticalPut("k", ref, []byte("v1")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}

		if v, present, ok := leaseRung(r, "k", ref); !ok || !present || string(v) != "v1" {
			t.Fatalf("lease rung = (%q, %v, %v), want (v1, true, true)", v, present, ok)
		}
		if v, err := r.CriticalGet("k", ref); err != nil || string(v) != "v1" {
			t.Fatalf("CriticalGet = (%q, %v), want v1", v, err)
		}
		if v, served := r.leaseGet("k"); !served || string(v) != "v1" {
			t.Fatalf("leaseGet = (%q, %v), want (v1, true)", v, served)
		}
		if v, err := r.Get("k"); err != nil || string(v) != "v1" {
			t.Fatalf("Get via lease = (%q, %v), want v1", v, err)
		}
		// Only the granting site holds the lease.
		if _, served := w.rep[1].leaseGet("k"); served {
			t.Fatal("non-holder site served from a lease it was never issued")
		}

		if err := r.ReleaseLock("k", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		if _, served := r.leaseGet("k"); served {
			t.Fatal("lease served after release revoked it")
		}
		if _, _, ok := leaseRung(r, "k", ref); ok {
			t.Fatal("lease rung succeeded after release")
		}
		// The fallback eventual read still observes the committed value.
		if v, err := r.Get("k"); err != nil || string(v) != "v1" {
			t.Fatalf("Get after release = (%q, %v), want v1", v, err)
		}
	})
}

// A fresh grant seeds its lease from the grant-time quorum peek (clean
// synchFlag path), so the new holder's first read serves locally with no
// section write; a critical delete folds present=false into the lease.
func TestLeaseSeededFromGrant(t *testing.T) {
	fixture(t, Config{Leases: true}, func(w *world) {
		ref1, err := w.rep[0].CreateLockRef("k")
		if err != nil {
			t.Fatalf("ref1: %v", err)
		}
		awaitLock(t, w, w.rep[0], "k", ref1)
		if err := w.rep[0].CriticalPut("k", ref1, []byte("seeded")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		if err := w.rep[0].ReleaseLock("k", ref1); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}

		ref2, err := w.rep[1].CreateLockRef("k")
		if err != nil {
			t.Fatalf("ref2: %v", err)
		}
		awaitLock(t, w, w.rep[1], "k", ref2)
		if v, present, ok := leaseRung(w.rep[1], "k", ref2); !ok || !present || string(v) != "seeded" {
			t.Fatalf("seeded lease rung = (%q, %v, %v), want (seeded, true, true)", v, present, ok)
		}
		if err := w.rep[1].CriticalDelete("k", ref2); err != nil {
			t.Fatalf("CriticalDelete: %v", err)
		}
		if v, present, ok := leaseRung(w.rep[1], "k", ref2); !ok || present || v != nil {
			t.Fatalf("post-delete lease rung = (%q, %v, %v), want (nil, false, true)", v, present, ok)
		}
		if v, err := w.rep[1].CriticalGet("k", ref2); err != nil || v != nil {
			t.Fatalf("post-delete CriticalGet = (%q, %v), want nil", v, err)
		}
		if err := w.rep[1].ReleaseLock("k", ref2); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}

// Past the effective TTL the lease stops serving (leaseLive) and the
// section's reads fall back to the quorum path, still within the T bound.
func TestLeaseWindowExpiry(t *testing.T) {
	// The TTL must dwarf the profile's WAN RTTs (~24–72ms) so the grant and
	// the put both land well inside the window.
	fixture(t, Config{Leases: true, LeaseTTL: time.Second, LeaseSkew: 50 * time.Millisecond}, func(w *world) {
		r := w.rep[0]
		ref, err := r.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, r, "k", ref)
		if err := r.CriticalPut("k", ref, []byte("v")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		if _, served := r.leaseGet("k"); !served {
			t.Fatal("lease did not serve inside its window")
		}

		w.rt.Sleep(1200 * time.Millisecond)
		if _, served := r.leaseGet("k"); served {
			t.Fatal("lease served past its TTL")
		}
		if _, _, ok := leaseRung(r, "k", ref); ok {
			t.Fatal("lease rung succeeded past the TTL")
		}
		// The section is still within T: critical reads work via quorum.
		if v, err := r.CriticalGet("k", ref); err != nil || string(v) != "v" {
			t.Fatalf("CriticalGet after lease expiry = (%q, %v), want v", v, err)
		}
		if err := r.ReleaseLock("k", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}

// Window arithmetic: the TTL clamps to T − 2·LeaseSkew, a clamp at or below
// zero disables serving entirely, and the foreign wait extends one skew
// bound past the serve window. siteTag is never zero and separates sites.
func TestLeaseTTLClampAndSiteTag(t *testing.T) {
	r := &Replica{cfg: Config{T: 100 * time.Millisecond, LeaseTTL: 2 * time.Second, LeaseSkew: 30 * time.Millisecond}}
	if got := r.leaseTTL(); got != 40*time.Millisecond {
		t.Fatalf("leaseTTL clamp = %v, want 40ms", got)
	}

	dead := &Replica{cfg: Config{T: 50 * time.Millisecond, LeaseTTL: 2 * time.Second, LeaseSkew: 30 * time.Millisecond}}
	if dead.leaseLive(0, 0) {
		t.Fatal("lease live under a T too small for the skew margin")
	}
	if got := dead.leaseWaitMicros(123); got != 123 {
		t.Fatalf("disabled-lease wait = %d, want start unchanged", got)
	}

	full := &Replica{cfg: Config{T: time.Minute, LeaseTTL: 2 * time.Second, LeaseSkew: 250 * time.Millisecond}}
	if got := full.leaseTTL(); got != 2*time.Second {
		t.Fatalf("unclamped leaseTTL = %v, want 2s", got)
	}
	wantWait := int64((2*time.Second + 250*time.Millisecond) / time.Microsecond)
	if got := full.leaseWaitMicros(0); got != wantWait {
		t.Fatalf("leaseWaitMicros = %d, want %d", got, wantWait)
	}
	if full.leaseLive(0, wantWait) {
		t.Fatal("lease live at the foreign-wait boundary")
	}

	a, b := &Replica{site: "site-a"}, &Replica{site: "site-b"}
	if a.siteTag() == 0 || b.siteTag() == 0 {
		t.Fatal("siteTag produced the reserved zero tag")
	}
	if a.siteTag() != a.siteTag() || a.siteTag() == b.siteTag() {
		t.Fatal("siteTag not stable per site / not distinct across sites")
	}
}

// Safety re-check: a preemption driven at a *remote* site dequeues the ref
// without touching the holder site's in-memory lease record, so leaseGet
// must catch it via the full critical guard it re-runs on every serve.
// A self-driven forced release revokes the record eagerly.
func TestLeaseServeRechecksGuardAfterPreemption(t *testing.T) {
	fixture(t, Config{Leases: true}, func(w *world) {
		r := w.rep[0]
		ref, err := r.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, r, "k", ref)
		if err := r.CriticalPut("k", ref, []byte("v1")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}

		// Remote preemption: rep[1] judges the holder dead and force-releases.
		if err := w.rep[1].ForcedRelease("k", ref); err != nil {
			t.Fatalf("remote ForcedRelease: %v", err)
		}
		// Let the dequeue replicate to rep[0]'s local lock replica (the
		// guard's peek is an eventual read; the window-vs-T margin, not
		// instant visibility, is what protects the replication gap).
		w.rt.Sleep(200 * time.Millisecond)
		// rep[0]'s lease record is still installed and inside its window,
		// but the guard sees the dequeued head and refuses the serve.
		if _, served := r.leaseGet("k"); served {
			t.Fatal("lease served after a remote preemption dequeued the ref")
		}
		if _, err := r.CriticalGet("k", ref); err == nil {
			t.Fatal("CriticalGet succeeded after preemption")
		}

		// The next holder synchronizes (forced release set the synchFlag)
		// and its lease seeds from the surviving value.
		ref2, err := w.rep[2].CreateLockRef("k")
		if err != nil {
			t.Fatalf("ref2: %v", err)
		}
		awaitLock(t, w, w.rep[2], "k", ref2)
		if v, present, ok := leaseRung(w.rep[2], "k", ref2); !ok || !present || string(v) != "v1" {
			t.Fatalf("post-sync lease rung = (%q, %v, %v), want (v1, true, true)", v, present, ok)
		}

		// Self-driven forced release revokes the local record eagerly.
		if err := w.rep[2].ForcedRelease("k", ref2); err != nil {
			t.Fatalf("self ForcedRelease: %v", err)
		}
		if _, served := w.rep[2].leaseGet("k"); served {
			t.Fatal("lease served after self forced release")
		}
	})
}

// Adaptive reads: with MutationStaleReads injected, every weak critical get
// after the first serves one write behind, the monitor counts each
// staleness violation and flips the site to QUORUM on the third, and
// post-flip reads are correct again.
func TestAdaptiveStaleReadFlipsMonitor(t *testing.T) {
	var rec *history.Recorder
	mon := history.NewMonitor()
	leaseFixture(t, func(rt *sim.Virtual) Config {
		rec = history.New(rt)
		rec.Attach(mon)
		return Config{History: rec, Monitor: mon, Mutation: MutationStaleReads}
	}, func(w *world) {
		r := w.rep[0]
		site := r.site
		ref, err := r.CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, r, "k", ref)

		if err := r.CriticalPut("k", ref, []byte("a")); err != nil {
			t.Fatalf("CriticalPut a: %v", err)
		}
		// First weak read: the stale swap has nothing remembered, so it
		// serves the current row — no violation.
		if v, err := r.CriticalGet("k", ref); err != nil || string(v) != "a" {
			t.Fatalf("first weak get = (%q, %v), want a", v, err)
		}
		// Each later weak read serves the remembered previous row — stale.
		prev := "a"
		for i, next := range []string{"b", "c", "d"} {
			if mon.Flipped(site) {
				t.Fatalf("monitor flipped the site after %d violations, want 3", i)
			}
			if err := r.CriticalPut("k", ref, []byte(next)); err != nil {
				t.Fatalf("CriticalPut %s: %v", next, err)
			}
			if v, err := r.CriticalGet("k", ref); err != nil || string(v) != prev {
				t.Fatalf("stale weak get = (%q, %v), want the injected stale %s", v, err, prev)
			}
			if got := mon.Violations(site); got != i+1 {
				t.Fatalf("monitor violations = %d, want %d", got, i+1)
			}
			prev = next
		}
		if !mon.Flipped(site) {
			t.Fatal("monitor did not flip the site on its third violation")
		}
		// Flipped: the next read goes back over the quorum path and is fresh.
		if v, err := r.CriticalGet("k", ref); err != nil || string(v) != "d" {
			t.Fatalf("post-flip get = (%q, %v), want d", v, err)
		}
		if got := mon.PostFlipViolations(site); got != 0 {
			t.Fatalf("post-flip violations = %d, want 0", got)
		}
		// The repair's quorum read re-converges without error.
		if err := r.RepairRead("k"); err != nil {
			t.Fatalf("RepairRead: %v", err)
		}
		if err := r.ReleaseLock("k", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}

// A write that loses its quorum must take the held value with it: the lease
// may not keep serving — as a critical-grade read — a value the store was
// never shown to hold. Under the quorum mode the failed write still landed
// on the local replica, so the fallback eventual Get legitimately returns
// its bytes and only the rung tells the two apart; an LWT that loses its
// quorum leaves nothing behind, so there the bytes differ too.
func TestLeaseFailedWriteNotServed(t *testing.T) {
	for _, mode := range []Mode{ModeQuorum, ModeLWT} {
		// The window must outlast the partitioned put's timeouts.
		cfg := Config{Leases: true, LeaseTTL: 30 * time.Second, Mode: mode}
		fixtureObserved(t, cfg, func(w *world) {
			r := w.rep[0]
			leaseGets := func() int64 { return w.opCount(OpLeaseGet, "ohio") }
			ref, err := r.CreateLockRef("k")
			if err != nil {
				t.Fatalf("CreateLockRef: %v", err)
			}
			awaitLock(t, w, r, "k", ref)
			if err := r.CriticalPut("k", ref, []byte("acked")); err != nil {
				t.Fatalf("CriticalPut: %v", err)
			}
			if v, err := r.Get("k"); err != nil || string(v) != "acked" || leaseGets() != 1 {
				t.Fatalf("mode %v: Get = (%q, %v) with %d lease serves, want acked served by the lease", mode, v, err, leaseGets())
			}

			w.net.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
			if err := r.CriticalPut("k", ref, []byte("unacked")); err == nil {
				t.Fatalf("mode %v: put succeeded without a quorum", mode)
			}
			v, err := r.Get("k")
			if err != nil {
				t.Fatalf("mode %v: Get after the failed put: %v", mode, err)
			}
			if leaseGets() != 1 {
				t.Errorf("mode %v: the lease served %q after the section's write failed", mode, v)
			}
			if mode == ModeLWT && string(v) != "acked" {
				t.Errorf("mode %v: Get = %q after the failed put, want acked", mode, v)
			}
			// The section's own read has no quorum to ask: it must fail rather
			// than answer from the record.
			if v, err := r.CriticalGet("k", ref); err == nil {
				t.Errorf("mode %v: CriticalGet = %q with the store unreachable, want an error", mode, v)
			}

			// Healed, a quorum read settles what the store holds and reopens
			// the rung with exactly that.
			w.net.Heal()
			settled, err := r.CriticalGet("k", ref)
			if err != nil {
				t.Fatalf("mode %v: CriticalGet after heal: %v", mode, err)
			}
			if v, err := r.Get("k"); err != nil || string(v) != string(settled) || leaseGets() != 2 {
				t.Errorf("mode %v: Get = (%q, %v) with %d lease serves, want the settled %q served by the lease", mode, v, err, leaseGets(), settled)
			}
		})
	}
}
