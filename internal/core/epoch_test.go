package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// dynamicWorld is a 3-site deployment on the consistent-hash ring with a
// spare 4th site (node 3, site-d) already running store services but
// outside the epoch-1 membership — the substrate for epoch-fence tests.
func dynamicFixture(t *testing.T, cfg Config, fn func(w *world, st *store.Cluster)) {
	t.Helper()
	rt := sim.New(11)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs.Extend("ius+d", "site-d")})
	members := []store.RingNode{{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"}, {ID: 2, Site: "oregon"}}
	st := store.New(net, store.Config{RF: 3, Nodes: []simnet.NodeID{0, 1, 2, 3}, Members: members})
	w := &world{rt: rt, net: net, st: st}
	for i := 0; i < 3; i++ {
		w.rep[i] = NewReplica(st.Client(simnet.NodeID(i)), cfg)
	}
	if err := rt.Run(func() { fn(w, st) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// movedKey finds a key whose replica set changes when members' ring grows
// by site-d, plus one whose placement is untouched.
func movedKey(t *testing.T, st *store.Cluster, grown []store.RingNode) (moved, unmoved string) {
	t.Helper()
	next := placement.New(grown, 3)
	for i := 0; i < 10000 && (moved == "" || unmoved == ""); i++ {
		key := fmt.Sprintf("fence-%d", i)
		before := st.ReplicasFor(key)
		after := next.ReplicasFor(key)
		if sameNodes(before, after) {
			if unmoved == "" {
				unmoved = key
			}
		} else if moved == "" {
			moved = key
		}
	}
	if moved == "" || unmoved == "" {
		t.Fatalf("no moved/unmoved key pair found (moved=%q unmoved=%q)", moved, unmoved)
	}
	return moved, unmoved
}

// TestEpochFencePreemptsMovedKey: a section granted in epoch 1 on a key the
// epoch-2 join moves must fail with ErrEpochFenced, be force-released, and
// leave the synchFlag set so the next grant synchronizes. A section on an
// unmoved key sails through the same epoch change.
func TestEpochFencePreemptsMovedKey(t *testing.T) {
	dynamicFixture(t, Config{T: time.Minute}, func(w *world, st *store.Cluster) {
		grown := []store.RingNode{
			{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"},
			{ID: 2, Site: "oregon"}, {ID: 3, Site: "site-d"},
		}
		moved, unmoved := movedKey(t, st, grown)

		refM, err := w.rep[0].CreateLockRef(moved)
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, w.rep[0], moved, refM)
		refU, err := w.rep[0].CreateLockRef(unmoved)
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, w.rep[0], unmoved, refU)
		if err := w.rep[0].CriticalPut(moved, refM, []byte("before")); err != nil {
			t.Fatalf("CriticalPut pre-change: %v", err)
		}

		st.ApplyMembership(2, grown)

		if err := w.rep[0].CriticalPut(moved, refM, []byte("after")); !errors.Is(err, ErrEpochFenced) {
			t.Fatalf("CriticalPut on moved key after epoch change: err=%v, want ErrEpochFenced", err)
		}
		// The fence force-released the lock: a fresh ref can be granted, and
		// its grant synchronizes (observable via the history-free path by the
		// grant succeeding and the ref becoming head).
		if err := w.rep[0].CriticalPut(unmoved, refU, []byte("fine")); err != nil {
			t.Fatalf("CriticalPut on unmoved key after epoch change: %v", err)
		}

		ref2, err := w.rep[0].CreateLockRef(moved)
		if err != nil {
			t.Fatalf("CreateLockRef after fence: %v", err)
		}
		awaitLock(t, w, w.rep[0], moved, ref2)
		v, err := w.rep[0].CriticalGet(moved, ref2)
		if err != nil {
			t.Fatalf("CriticalGet after fence: %v", err)
		}
		if string(v) != "before" {
			t.Fatalf("value after fence = %q, want the pre-change write %q", v, "before")
		}
		// The fenced op never landed: its write was rejected before issue.
		if err := w.rep[0].ReleaseLock(moved, ref2); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		if err := w.rep[0].ReleaseLock(unmoved, refU); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}

// TestEpochFenceRefusesUnplacedAdoption: after a retire, a site the new
// epoch no longer places a key at must refuse to adopt that key's
// replicated grant (the §III-A failover path), failing with ErrEpochFenced
// instead of serving quorum ops that could miss the section's writes.
func TestEpochFenceRefusesUnplacedAdoption(t *testing.T) {
	dynamicFixture(t, Config{T: time.Minute}, func(w *world, st *store.Cluster) {
		grown := []store.RingNode{
			{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"},
			{ID: 2, Site: "oregon"}, {ID: 3, Site: "site-d"},
		}
		// Find a key that epoch 2 stops placing at ncalifornia (rf 3 over 4
		// sites leaves one site out per key).
		next := placement.New(grown, 3)
		key := ""
		for i := 0; i < 10000; i++ {
			k := fmt.Sprintf("adopt-%d", i)
			if !next.PlacesSite(k, "ncalifornia") {
				key = k
				break
			}
		}
		if key == "" {
			t.Fatal("no key displaced from ncalifornia found")
		}

		ref, err := w.rep[0].CreateLockRef(key)
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, w.rep[0], key, ref)
		// Let the replicated grant cell land so another site can see it.
		w.rt.Sleep(2 * time.Second)

		st.ApplyMembership(2, grown)

		// The failover client re-drives its acquire at ncalifornia (rep[1]);
		// adoption must be refused because epoch 2 does not place the key
		// there.
		_, err = w.rep[1].AcquireLock(key, ref)
		if !errors.Is(err, ErrEpochFenced) {
			t.Fatalf("adoption at unplaced site: err=%v, want ErrEpochFenced", err)
		}
	})
}

// TestEpochFenceRetiredSite: an epoch that drops a site entirely stops that
// site from serving sections — in-flight holders are preempted with a
// forced release, and new lockRefs and grants are refused outright. Spare
// sites that have not joined yet are refused the same way.
func TestEpochFenceRetiredSite(t *testing.T) {
	dynamicFixture(t, Config{T: time.Minute}, func(w *world, st *store.Cluster) {
		// Before any change: site-d's replica is a spare outside epoch 1 and
		// must refuse to open sections.
		repD := NewReplica(st.Client(simnet.NodeID(3)), Config{T: time.Minute})
		if _, err := repD.CreateLockRef("spare-k"); !errors.Is(err, ErrEpochFenced) {
			t.Fatalf("CreateLockRef at spare site: err=%v, want ErrEpochFenced", err)
		}

		ref, err := w.rep[2].CreateLockRef("retire-k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, w.rep[2], "retire-k", ref)
		if err := w.rep[2].CriticalPut("retire-k", ref, []byte("held")); err != nil {
			t.Fatalf("CriticalPut pre-retire: %v", err)
		}

		// Epoch 2 retires oregon (rep[2]'s site).
		st.ApplyMembership(2, []store.RingNode{
			{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"},
		})

		if err := w.rep[2].CriticalPut("retire-k", ref, []byte("after")); !errors.Is(err, ErrEpochFenced) {
			t.Fatalf("CriticalPut at retired site: err=%v, want ErrEpochFenced", err)
		}
		if _, err := w.rep[2].CreateLockRef("retire-k2"); !errors.Is(err, ErrEpochFenced) {
			t.Fatalf("CreateLockRef at retired site: err=%v, want ErrEpochFenced", err)
		}
		// The preemption force-released the lock: a surviving site grants a
		// fresh section and synchronize hides the dead holder's torn state.
		ref2, err := w.rep[0].CreateLockRef("retire-k")
		if err != nil {
			t.Fatalf("CreateLockRef at surviving site: %v", err)
		}
		awaitLock(t, w, w.rep[0], "retire-k", ref2)
		v, err := w.rep[0].CriticalGet("retire-k", ref2)
		if err != nil {
			t.Fatalf("CriticalGet after retire: %v", err)
		}
		if string(v) != "held" {
			t.Fatalf("value after retire = %q, want %q", v, "held")
		}
		if err := w.rep[0].ReleaseLock("retire-k", ref2); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}

// TestEpochRetiredDuringGrantRead: the grant's quorum read is a WAN round, and
// an epoch that retires the site can be applied while it is in flight. The
// entry fence passed a round ago; the grant must be certified against the
// membership current when it is issued, or a non-member issues it (the
// epoch-member violation churn seed 7 showed once waiters woke early).
func TestEpochRetiredDuringGrantRead(t *testing.T) {
	dynamicFixture(t, Config{T: time.Minute}, func(w *world, st *store.Cluster) {
		const key = "retire-mid-grant"
		oregon := w.rep[2]
		ref, err := oregon.CreateLockRef(key)
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		// The local peek takes well under a millisecond; the quorum read
		// after it needs N. California's reply, 24 ms away. Epoch 2 lands
		// in between.
		w.rt.Go(func() {
			w.rt.Sleep(5 * time.Millisecond)
			st.ApplyMembership(2, []store.RingNode{{ID: 0, Site: "ohio"}, {ID: 1, Site: "ncalifornia"}})
		})
		start := w.rt.Now()
		ok, err := oregon.AcquireLock(key, ref)
		if took := w.rt.Now() - start; took < 20*time.Millisecond {
			t.Fatalf("AcquireLock returned after %v: the epoch change did not land mid-read", took)
		}
		if ok || !errors.Is(err, ErrEpochFenced) {
			t.Fatalf("AcquireLock at a site retired during the grant's quorum read = (%v, %v), want ErrEpochFenced", ok, err)
		}
		s := oregon.shardFor(key)
		s.mu.Lock()
		_, recorded := s.grants[key]
		s.mu.Unlock()
		if recorded {
			t.Errorf("the refused grant left a grant record at the retired site")
		}
		// The ref is still queued and ungranted: a member site takes it over.
		awaitLock(t, w, w.rep[0], key, ref)
		if err := w.rep[0].ReleaseLock(key, ref); err != nil {
			t.Fatalf("ReleaseLock at the member site: %v", err)
		}
	})
}

// TestEpochFenceInertOnStaticClusters: fixed-membership clusters never see
// a fence — the epoch stays 1 and grants skip the placement snapshot.
func TestEpochFenceInertOnStaticClusters(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		if w.st.Dynamic() {
			t.Fatal("static fixture reports Dynamic()")
		}
		ref, err := w.rep[0].CreateLockRef("static-k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, w.rep[0], "static-k", ref)
		if err := w.rep[0].CriticalPut("static-k", ref, []byte("v")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		if err := w.rep[0].ReleaseLock("static-k", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}
