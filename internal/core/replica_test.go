package core

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// world bundles a 3-site MUSIC deployment with one replica per site.
type world struct {
	rt  *sim.Virtual
	net *simnet.Network
	st  *store.Cluster
	rep [3]*Replica
	obs *obs.Obs // nil unless built by fixtureObserved
}

func fixture(t *testing.T, cfg Config, fn func(w *world)) {
	t.Helper()
	fixtureSeed(t, cfg, 11, fn)
}

func fixtureSeed(t *testing.T, cfg Config, seed int64, fn func(w *world)) {
	t.Helper()
	runWorld(t, cfg, seed, false, fn)
}

// fixtureObserved is fixture with observability on, for tests that read the
// replicas' own metrics (w.opCount).
func fixtureObserved(t *testing.T, cfg Config, fn func(w *world)) {
	t.Helper()
	runWorld(t, cfg, 11, true, fn)
}

func runWorld(t *testing.T, cfg Config, seed int64, observed bool, fn func(w *world)) {
	t.Helper()
	rt := sim.New(seed)
	var ob *obs.Obs
	if observed {
		ob = obs.New(rt)
	}
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, Obs: ob})
	st := store.New(net, store.Config{})
	w := &world{rt: rt, net: net, st: st, obs: ob}
	for i := 0; i < 3; i++ {
		w.rep[i] = NewReplica(st.Client(simnet.NodeID(i)), cfg)
	}
	if err := rt.Run(func() { fn(w) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// opCount is how many completed ops of one kind a site's replica has timed
// into music_op_latency.
func (w *world) opCount(op Op, site string) int64 {
	return w.obs.Metrics().Histogram("music_op_latency", obs.Labels{"op": op.String(), "site": site}).Snapshot().N()
}

// awaitLock polls AcquireLock as clients do (Listing 1).
func awaitLock(t *testing.T, w *world, r *Replica, key string, ref int64) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		ok, err := r.AcquireLock(key, ref)
		if err != nil {
			t.Fatalf("AcquireLock(%s, %d): %v", key, ref, err)
		}
		if ok {
			return
		}
		w.rt.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("lock %s/%d never acquired", key, ref)
}

func TestListing1IncrementFlow(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		r := w.rep[0]
		ref, err := r.CreateLockRef("counter")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, r, "counter", ref)

		v1, err := r.CriticalGet("counter", ref)
		if err != nil {
			t.Fatalf("CriticalGet: %v", err)
		}
		n := 0
		if v1 != nil {
			n, _ = strconv.Atoi(string(v1))
		}
		if err := r.CriticalPut("counter", ref, []byte(strconv.Itoa(n+1))); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		got, err := r.CriticalGet("counter", ref)
		if err != nil || string(got) != "1" {
			t.Fatalf("CriticalGet after put = (%q, %v), want 1", got, err)
		}
		if err := r.ReleaseLock("counter", ref); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
	})
}

func TestLockIsFIFOAcrossSites(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref1, err := w.rep[0].CreateLockRef("k")
		if err != nil {
			t.Fatalf("ref1: %v", err)
		}
		ref2, err := w.rep[1].CreateLockRef("k")
		if err != nil {
			t.Fatalf("ref2: %v", err)
		}
		if ref2 <= ref1 {
			t.Fatalf("refs not increasing: %d, %d", ref1, ref2)
		}

		awaitLock(t, w, w.rep[0], "k", ref1)
		// Client 2 cannot acquire while client 1 holds the lock.
		if ok, err := w.rep[1].AcquireLock("k", ref2); err != nil || ok {
			t.Fatalf("second client acquired concurrently: ok=%v err=%v", ok, err)
		}
		if err := w.rep[0].CriticalPut("k", ref1, []byte("from-1")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		if err := w.rep[0].ReleaseLock("k", ref1); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}

		awaitLock(t, w, w.rep[1], "k", ref2)
		got, err := w.rep[1].CriticalGet("k", ref2)
		if err != nil || string(got) != "from-1" {
			t.Fatalf("second holder reads (%q, %v), want from-1", got, err)
		}
	})
}

func TestExclusivityNonHolderRejected(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("k")
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref1)

		// ref2 is queued but not the holder: critical ops are refused.
		if err := w.rep[1].CriticalPut("k", ref2, []byte("x")); !errors.Is(err, ErrNotLockHolder) {
			t.Fatalf("queued client put err = %v, want ErrNotLockHolder", err)
		}
		if _, err := w.rep[1].CriticalGet("k", ref2); !errors.Is(err, ErrNotLockHolder) {
			t.Fatalf("queued client get err = %v, want ErrNotLockHolder", err)
		}
	})
}

func TestReleasedRefIsNoLongerHolder(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref1)
		if err := w.rep[0].ReleaseLock("k", ref1); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[1], "k", ref2)

		// The old ref now observes youAreNoLongerLockHolder.
		if err := w.rep[0].CriticalPut("k", ref1, []byte("stale")); !errors.Is(err, ErrNoLongerLockHolder) {
			t.Fatalf("stale put err = %v, want ErrNoLongerLockHolder", err)
		}
		if ok, err := w.rep[0].AcquireLock("k", ref1); ok || !errors.Is(err, ErrNoLongerLockHolder) {
			t.Fatalf("stale acquire = (%v, %v), want (false, ErrNoLongerLockHolder)", ok, err)
		}
	})
}

func TestFailoverPreservesLatestState(t *testing.T) {
	// A lockholder writes, crashes; the lock is force-released; the next
	// holder must read the latest state (the paper's latest-state
	// requirement for the homing service).
	fixture(t, Config{}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("job")
		awaitLock(t, w, w.rep[0], "job", ref1)
		if err := w.rep[0].CriticalPut("job", ref1, []byte("state-3")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		// Client 1 crashes silently. Another MUSIC replica preempts it.
		if err := w.rep[1].ForcedRelease("job", ref1); err != nil {
			t.Fatalf("ForcedRelease: %v", err)
		}

		ref2, _ := w.rep[1].CreateLockRef("job")
		awaitLock(t, w, w.rep[1], "job", ref2)
		got, err := w.rep[1].CriticalGet("job", ref2)
		if err != nil || string(got) != "state-3" {
			t.Fatalf("failover read = (%q, %v), want state-3", got, err)
		}
	})
}

func TestPreemptedStragglerWriteCannotWin(t *testing.T) {
	// The SynchFlag invariant (§IV-B b): after a forced release and the next
	// holder's synchronization, a straggling write stamped with the old
	// lockRef must not become the value seen in the new critical section.
	fixture(t, Config{T: time.Minute}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref1)
		if err := w.rep[0].CriticalPut("k", ref1, []byte("v1")); err != nil {
			t.Fatalf("CriticalPut v1: %v", err)
		}

		// False failure detection: replica 1 preempts the live holder.
		if err := w.rep[1].ForcedRelease("k", ref1); err != nil {
			t.Fatalf("ForcedRelease: %v", err)
		}
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[1], "k", ref2) // synchronizes the data store

		// The preempted client's write, still in flight with ref1's
		// timestamp, now lands at a quorum — directly via the data store,
		// bypassing MUSIC's guards (the worst case).
		stale := store.Cell{Value: []byte("straggler"), TS: v2s(ref1, 30*time.Second, time.Minute)}
		if err := w.st.Client(0).Put(DataTable, "k", store.Row{colValue: stale}, store.Quorum); err != nil {
			t.Fatalf("straggler put: %v", err)
		}

		got, err := w.rep[1].CriticalGet("k", ref2)
		if err != nil {
			t.Fatalf("CriticalGet: %v", err)
		}
		if string(got) == "straggler" {
			t.Fatal("straggler write with preempted lockRef became the true value")
		}
		if string(got) != "v1" {
			t.Fatalf("true value = %q, want v1 (the synchronized value)", got)
		}

		// And MUSIC's own guard also rejects the preempted client.
		if err := w.rep[0].CriticalPut("k", ref1, []byte("more")); !errors.Is(err, ErrNoLongerLockHolder) {
			t.Fatalf("preempted put err = %v, want ErrNoLongerLockHolder", err)
		}
	})
}

func TestForcedReleaseOfReleasedLockIsNoOp(t *testing.T) {
	// §IV-B: a forcedRelease targeting an already-released lockRef may
	// leave the synchFlag erroneously true; the only consequence is one
	// unnecessary synchronization.
	fixture(t, Config{}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref1)
		if err := w.rep[0].CriticalPut("k", ref1, []byte("v1")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		if err := w.rep[0].ReleaseLock("k", ref1); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		// Late, mistaken forced release of the now-gone ref.
		if err := w.rep[2].ForcedRelease("k", ref1); err != nil {
			t.Fatalf("late ForcedRelease: %v", err)
		}
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[1], "k", ref2)
		got, err := w.rep[1].CriticalGet("k", ref2)
		if err != nil || string(got) != "v1" {
			t.Fatalf("value after spurious forcedRelease = (%q, %v), want v1", got, err)
		}
	})
}

func TestExpiredHolderIsReapedAndRejected(t *testing.T) {
	fixture(t, Config{T: 500 * time.Millisecond}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref1)
		w.rt.Sleep(time.Second) // blow through T

		// The overrunning holder's own put is refused with ErrExpired.
		err := w.rep[0].CriticalPut("k", ref1, []byte("late"))
		if !errors.Is(err, ErrExpired) && !errors.Is(err, ErrNoLongerLockHolder) {
			t.Fatalf("expired put err = %v, want ErrExpired", err)
		}

		// A waiting client gets the lock via expiry reaping.
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[1], "k", ref2)
	})
}

func TestOrphanLockRefIsReaped(t *testing.T) {
	// A client creates a lockRef and dies before acquiring: when the orphan
	// reaches the head, other clients' acquire polls force-release it.
	fixture(t, Config{T: 500 * time.Millisecond}, func(w *world) {
		if _, err := w.rep[0].CreateLockRef("k"); err != nil { // orphan
			t.Fatalf("orphan ref: %v", err)
		}
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[1], "k", ref2)
	})
}

func TestGrantFailoverToAnotherReplica(t *testing.T) {
	// The client acquires at replica 0 but continues its critical section
	// at replica 2 (e.g. after replica 0 becomes unreachable); replica 2
	// recovers the grant time from the lock store.
	fixture(t, Config{}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		w.rt.Sleep(time.Second) // let the grant record replicate

		if err := w.rep[2].CriticalPut("k", ref, []byte("via-2")); err != nil {
			t.Fatalf("failover CriticalPut: %v", err)
		}
		got, err := w.rep[2].CriticalGet("k", ref)
		if err != nil || string(got) != "via-2" {
			t.Fatalf("failover read = (%q, %v)", got, err)
		}
		if err := w.rep[2].ReleaseLock("k", ref); err != nil {
			t.Fatalf("failover release: %v", err)
		}
	})
}

func TestReleaseAfterForcedReleaseSucceeds(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref1, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref1)
		if err := w.rep[1].ForcedRelease("k", ref1); err != nil {
			t.Fatalf("ForcedRelease: %v", err)
		}
		ref2, _ := w.rep[1].CreateLockRef("k")
		awaitLock(t, w, w.rep[1], "k", ref2)
		// The preempted client's own release is a harmless no-op success.
		if err := w.rep[0].ReleaseLock("k", ref1); err != nil {
			t.Fatalf("release after preemption: %v", err)
		}
	})
}

func TestAcquireIdempotentAfterGrant(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		ok, err := w.rep[0].AcquireLock("k", ref)
		if err != nil || !ok {
			t.Fatalf("re-acquire = (%v, %v), want (true, nil)", ok, err)
		}
	})
}

func TestIndependentKeysDoNotInterfere(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		refA, _ := w.rep[0].CreateLockRef("a")
		refB, _ := w.rep[1].CreateLockRef("b")
		awaitLock(t, w, w.rep[0], "a", refA)
		awaitLock(t, w, w.rep[1], "b", refB)
		if err := w.rep[0].CriticalPut("a", refA, []byte("va")); err != nil {
			t.Fatalf("put a: %v", err)
		}
		if err := w.rep[1].CriticalPut("b", refB, []byte("vb")); err != nil {
			t.Fatalf("put b: %v", err)
		}
	})
}

func TestCriticalOpsUnavailableWithoutQuorum(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		w.net.Crash(1)
		w.net.Crash(2)
		if err := w.rep[0].CriticalPut("k", ref, []byte("x")); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("put err = %v, want ErrUnavailable", err)
		}
		if _, err := w.rep[0].CriticalGet("k", ref); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("get err = %v, want ErrUnavailable", err)
		}
	})
}

func TestCriticalOpsSurviveOneSiteDown(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		w.net.Crash(2)
		if err := w.rep[0].CriticalPut("k", ref, []byte("x")); err != nil {
			t.Fatalf("put with one site down: %v", err)
		}
		got, err := w.rep[0].CriticalGet("k", ref)
		if err != nil || string(got) != "x" {
			t.Fatalf("get with one site down = (%q, %v)", got, err)
		}
		if err := w.rep[0].ReleaseLock("k", ref); err != nil {
			t.Fatalf("release with one site down: %v", err)
		}
	})
}

func TestCriticalDelete(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		if err := w.rep[0].CriticalPut("k", ref, []byte("x")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := w.rep[0].CriticalDelete("k", ref); err != nil {
			t.Fatalf("delete: %v", err)
		}
		got, err := w.rep[0].CriticalGet("k", ref)
		if err != nil || got != nil {
			t.Fatalf("get after delete = (%q, %v), want nil", got, err)
		}
	})
}

func TestEventualPutGetAndAllKeys(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		if err := w.rep[0].Put("job-1", []byte("desc")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := w.rep[0].Get("job-1")
		if err != nil || string(got) != "desc" {
			t.Fatalf("Get = (%q, %v)", got, err)
		}
		w.rt.Sleep(500 * time.Millisecond) // propagate
		keys, err := w.rep[2].GetAllKeys()
		if err != nil || len(keys) != 1 || keys[0] != "job-1" {
			t.Fatalf("GetAllKeys = (%v, %v)", keys, err)
		}
	})
}

func TestCriticalValueDominatesPlainPut(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		if err := w.rep[0].Put("k", []byte("initial")); err != nil {
			t.Fatalf("plain Put: %v", err)
		}
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		v, err := w.rep[0].CriticalGet("k", ref)
		if err != nil || string(v) != "initial" {
			t.Fatalf("critical read of plain value = (%q, %v)", v, err)
		}
		if err := w.rep[0].CriticalPut("k", ref, []byte("critical")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		// A late plain put must not clobber the critical (true) value.
		if err := w.rep[1].Put("k", []byte("late-plain")); err != nil {
			t.Fatalf("late plain Put: %v", err)
		}
		got, err := w.rep[0].CriticalGet("k", ref)
		if err != nil || string(got) != "critical" {
			t.Fatalf("value = (%q, %v), want critical", got, err)
		}
	})
}

func TestRemoveRetiresKey(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		if err := w.rep[0].CriticalPut("k", ref, []byte("x")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := w.rep[0].ReleaseLock("k", ref); err != nil {
			t.Fatalf("release: %v", err)
		}
		if err := w.rep[0].Remove("k"); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		w.rt.Sleep(500 * time.Millisecond)
		keys, err := w.rep[0].GetAllKeys()
		if err != nil || len(keys) != 0 {
			t.Fatalf("keys after Remove = (%v, %v), want none", keys, err)
		}
	})
}

func TestMSCPModeUsesLWTPut(t *testing.T) {
	fixture(t, Config{Mode: ModeLWT}, func(w *world) {
		r := w.rep[0]
		ref, _ := r.CreateLockRef("k")
		awaitLock(t, w, r, "k", ref)

		start := w.rt.Now()
		if err := r.CriticalPut("k", ref, []byte("x")); err != nil {
			t.Fatalf("MSCP put: %v", err)
		}
		lwtPut := w.rt.Now() - start
		if lwtPut < 150*time.Millisecond {
			t.Fatalf("MSCP critical put took %v, want ≈4 RTTs (>150ms)", lwtPut)
		}
		got, err := r.CriticalGet("k", ref)
		if err != nil || string(got) != "x" {
			t.Fatalf("MSCP get = (%q, %v)", got, err)
		}
	})
}

func TestFig5bLatencyShape(t *testing.T) {
	// The paper's per-operation breakdown for IUs (§VIII-b): createLockRef
	// and releaseLock cost ≈4 RTTs; the acquire grant is one quorum read;
	// the MUSIC criticalPut is one quorum write; the peek is local.
	fixture(t, Config{}, func(w *world) {
		r := w.rep[0]
		measure := func(fn func()) time.Duration {
			start := w.rt.Now()
			fn()
			return w.rt.Now() - start
		}

		var ref int64
		create := measure(func() {
			var err error
			ref, err = r.CreateLockRef("k")
			if err != nil {
				t.Fatalf("create: %v", err)
			}
		})
		grant := measure(func() { awaitLock(t, w, r, "k", ref) })
		peek := measure(func() {
			if _, _, err := lockPeek(r, "k"); err != nil {
				t.Fatalf("peek: %v", err)
			}
		})
		put := measure(func() {
			if err := r.CriticalPut("k", ref, []byte("v")); err != nil {
				t.Fatalf("put: %v", err)
			}
		})
		release := measure(func() {
			if err := r.ReleaseLock("k", ref); err != nil {
				t.Fatalf("release: %v", err)
			}
		})

		if create < 150*time.Millisecond || create > 400*time.Millisecond {
			t.Errorf("createLockRef = %v, want ≈215ms (4 RTTs)", create)
		}
		if grant < 40*time.Millisecond || grant > 150*time.Millisecond {
			t.Errorf("acquire grant = %v, want ≈55ms (synchFlag quorum read)", grant)
		}
		if peek > 2*time.Millisecond {
			t.Errorf("peek = %v, want sub-ms local read", peek)
		}
		if put < 40*time.Millisecond || put > 120*time.Millisecond {
			t.Errorf("criticalPut = %v, want ≈55ms (quorum write)", put)
		}
		if release < 150*time.Millisecond || release > 400*time.Millisecond {
			t.Errorf("releaseLock = %v, want ≈215ms (4 RTTs)", release)
		}
	})
}

// lockPeek exposes the lock store peek for the latency-shape test.
func lockPeek(r *Replica, key string) (int64, bool, error) {
	e, ok, err := r.shardFor(key).ls.Peek(key)
	return e.Ref, ok, err
}

func TestOpLatencyHistogramSeesOperations(t *testing.T) {
	fixtureObserved(t, Config{}, func(w *world) {
		r := w.rep[0]
		ref, _ := r.CreateLockRef("k")
		awaitLock(t, w, r, "k", ref)
		_ = r.CriticalPut("k", ref, []byte("v"))
		_, _ = r.CriticalGet("k", ref)
		_ = r.ReleaseLock("k", ref)
		for _, op := range []Op{OpCreateLockRef, OpAcquirePeek, OpAcquireGrant, OpCriticalPut, OpCriticalGet, OpReleaseLock} {
			if w.opCount(op, "ohio") == 0 {
				t.Errorf("music_op_latency never saw %v", op)
			}
		}
	})
}

// The failure detector every deployment runs is the next contender's poll
// (reapExpiredHead): a holder that goes silent past T is force-released by
// it, the key is marked for synchronization, and the contender is granted.
func TestSilentHolderReapedByNextContender(t *testing.T) {
	const T = 300 * time.Millisecond
	fixtureObserved(t, Config{T: T}, func(w *world) {
		ref, _ := w.rep[0].CreateLockRef("k")
		awaitLock(t, w, w.rep[0], "k", ref)
		if err := w.rep[0].CriticalPut("k", ref, []byte("v")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		// The holder goes silent. Nobody polls, so nobody reaps: there is no
		// background sweeper.
		w.rt.Sleep(3 * time.Second)
		if head, ok, err := lockPeek(w.rep[2], "k"); err != nil || !ok || head != ref {
			t.Fatalf("silent holder with no contender: head = (%d, %v, %v), want %d still queued", head, ok, err, ref)
		}
		next, err := w.rep[2].CreateLockRef("k")
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		start := w.rt.Now()
		awaitLock(t, w, w.rep[2], "k", next)
		if waited := w.rt.Now() - start; waited > 2*time.Second {
			t.Errorf("contender waited %v for a holder already %v past T", waited, 3*time.Second-T)
		}
		if n := w.opCount(OpForcedRelease, "oregon"); n != 1 {
			t.Errorf("forced releases at the contender's site = %d, want 1", n)
		}
		if got, err := w.rep[2].CriticalGet("k", next); err != nil || string(got) != "v" {
			t.Errorf("CriticalGet after the reap = (%q, %v), want v", got, err)
		}
		if err := w.rep[0].CriticalPut("k", ref, []byte("late")); !errors.Is(err, ErrNoLongerLockHolder) {
			t.Errorf("preempted holder's put: %v, want ErrNoLongerLockHolder", err)
		}
	})
}

// A homing-style run (§VII-a): three workers, one per site, race for each job
// key; one wins, the other two time out and evict their lockRefs. Whatever a
// replica tracked about those waiters and about the heads they watched must
// go with them — keys are never reused, so anything left behind is left
// forever. That includes the watches the waiters park in the lock store
// between polls: the winner's goes with its grant, a loser's when it gives up.
func TestWaiterStateDoesNotLeak(t *testing.T) {
	fixtureObserved(t, Config{}, func(w *world) {
		const jobs = 4
		for job := 0; job < jobs; job++ {
			key := fmt.Sprintf("job-%d", job)
			done := sim.NewMailbox[error](w.rt)
			for _, r := range w.rep {
				w.rt.Go(func() {
					ref, err := r.CreateLockRef(key)
					if err != nil {
						done.Send(err)
						return
					}
					// Wait as music.Client.await does: on the lock row's commit
					// or the poll timer, re-arming a spent watch before the peek.
					watch := r.WatchLock(key, ref)
					defer func() { watch.Cancel() }()
					for deadline := w.rt.Now() + 2*time.Second; ; {
						ok, err := r.AcquireLock(key, ref)
						if err != nil {
							done.Send(err)
							return
						}
						if ok {
							break
						}
						if w.rt.Now() >= deadline {
							// Lost the race: RemoveLockRef, and on to the next job.
							done.Send(r.ReleaseLock(key, ref))
							return
						}
						if watch.Wait(5 * time.Millisecond) {
							watch = r.WatchLock(key, ref)
						}
					}
					if err := r.CriticalPut(key, ref, []byte("DONE")); err != nil {
						done.Send(err)
						return
					}
					w.rt.Sleep(4 * time.Second) // the stage outlasts the losers' patience
					done.Send(r.ReleaseLock(key, ref))
				})
			}
			for range w.rep {
				if err, recvErr := done.RecvTimeout(time.Minute); err != nil || recvErr != nil {
					t.Fatalf("%s: %v / %v", key, err, recvErr)
				}
			}
		}
		for i, r := range w.rep {
			for _, s := range r.shards {
				s.mu.Lock()
				if len(s.grants)+len(s.seen)+len(s.behind)+len(s.stale) != 0 {
					t.Errorf("replica %d after %d jobs: grants %v, seen %v, behind %v, stale %d rows — want all empty",
						i, jobs, s.grants, s.seen, s.behind, len(s.stale))
				}
				s.mu.Unlock()
			}
		}
		for _, site := range []string{"ohio", "ncalifornia", "oregon"} {
			if n := w.obs.Metrics().Gauge("lockstore_watchers", obs.Labels{"site": site}).Value(); n != 0 {
				t.Errorf("lockstore_watchers{site=%s} = %d after %d jobs, want 0", site, n, jobs)
			}
		}
	})
}

// The orphan clock on a head is shared by every waiter polling a replica, so
// a waiter that gives up must leave it running: the next waiter reaps the
// orphan OrphanTimeout after it was first seen, not after the last departure.
// Once the orphan is gone the clock goes too.
func TestDepartingWaiterKeepsOrphanClock(t *testing.T) {
	fixture(t, Config{OrphanTimeout: time.Second}, func(w *world) {
		r := w.rep[1]
		if _, err := w.rep[0].CreateLockRef("k"); err != nil { // never acquired: an orphan
			t.Fatalf("CreateLockRef: %v", err)
		}
		quitter, _ := r.CreateLockRef("k")
		firstSeen := w.rt.Now()
		for w.rt.Now() < firstSeen+600*time.Millisecond {
			if ok, err := r.AcquireLock("k", quitter); ok || err != nil {
				t.Fatalf("AcquireLock behind an orphan = (%v, %v)", ok, err)
			}
			w.rt.Sleep(5 * time.Millisecond)
		}
		if err := r.ReleaseLock("k", quitter); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		s := r.shardFor("k")
		if len(s.seen) != 1 || len(s.behind) != 0 {
			t.Fatalf("after the waiter left: seen %v, behind %v — want the orphan's clock and nothing else", s.seen, s.behind)
		}
		next, _ := r.CreateLockRef("k")
		awaitLock(t, w, r, "k", next)
		if waited := w.rt.Now() - firstSeen; waited > 2*time.Second {
			t.Errorf("orphan reaped %v after it was first seen, want OrphanTimeout (1s) plus the reap", waited)
		}
		if err := r.ReleaseLock("k", next); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}
		if len(s.grants)+len(s.seen)+len(s.behind) != 0 {
			t.Errorf("after the last release: grants %v, seen %v, behind %v — want all empty", s.grants, s.seen, s.behind)
		}
	})
}

func TestManyClientsOneKeySequentialValues(t *testing.T) {
	// Six clients across three sites run increment critical sections; the
	// counter must end exactly at the number of successful sections, with
	// no lost updates (Exclusivity + Latest-State combined).
	fixture(t, Config{}, func(w *world) {
		done := sim.NewMailbox[error](w.rt)
		const clients = 6
		for i := 0; i < clients; i++ {
			r := w.rep[i%3]
			w.rt.Go(func() {
				ref, err := r.CreateLockRef("ctr")
				if err != nil {
					done.Send(err)
					return
				}
				for {
					ok, err := r.AcquireLock("ctr", ref)
					if err != nil {
						done.Send(err)
						return
					}
					if ok {
						break
					}
					w.rt.Sleep(5 * time.Millisecond)
				}
				v, err := r.CriticalGet("ctr", ref)
				if err != nil {
					done.Send(err)
					return
				}
				n := 0
				if v != nil {
					n, _ = strconv.Atoi(string(v))
				}
				if err := r.CriticalPut("ctr", ref, []byte(strconv.Itoa(n+1))); err != nil {
					done.Send(err)
					return
				}
				done.Send(r.ReleaseLock("ctr", ref))
			})
		}
		for i := 0; i < clients; i++ {
			if err, recvErr := done.RecvTimeout(10 * time.Minute); recvErr != nil || err != nil {
				t.Fatalf("client %d: %v / %v", i, err, recvErr)
			}
		}
		ref, _ := w.rep[0].CreateLockRef("ctr")
		awaitLock(t, w, w.rep[0], "ctr", ref)
		got, err := w.rep[0].CriticalGet("ctr", ref)
		if err != nil || string(got) != strconv.Itoa(clients) {
			t.Fatalf("final counter = (%q, %v), want %d", got, err, clients)
		}
	})
}

func TestV2SPreservesVectorOrder(t *testing.T) {
	// §X-A2's lemma, as a property test: v2s preserves the ordering of
	// vector timestamps for elapsed times within the T bound.
	tBound := time.Minute
	ticks := int64(tBound / time.Microsecond)
	f := func(ref1, ref2 uint32, e1, e2 uint32) bool {
		r1, r2 := int64(ref1%1e6)+1, int64(ref2%1e6)+1
		d1 := time.Duration(int64(e1)%(ticks-2)) * time.Microsecond
		d2 := time.Duration(int64(e2)%(ticks-2)) * time.Microsecond
		s1, s2 := v2s(r1, d1, tBound), v2s(r2, d2, tBound)
		switch {
		case r1 < r2:
			return s1 < s2
		case r1 > r2:
			return s1 > s2
		case d1 < d2:
			return s1 < s2
		case d1 > d2:
			return s1 > s2
		default:
			return s1 == s2
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestV2SForcedDelta(t *testing.T) {
	// The δ property (§IV-B): a forced-release stamp beats every in-section
	// stamp of the same lockRef and loses to every stamp of the next.
	tBound := time.Minute
	for _, ref := range []int64{1, 2, 10, 1 << 30} {
		forced := v2sForced(ref, tBound)
		if forced <= v2s(ref, tBound-2*time.Microsecond, tBound) {
			t.Errorf("forced(%d) does not beat max in-section stamp", ref)
		}
		if forced >= v2s(ref+1, 0, tBound) {
			t.Errorf("forced(%d) not below next lockRef's first stamp", ref)
		}
	}
}

func TestRefOfTS(t *testing.T) {
	tBound := time.Minute
	if got := refOfTS(v2s(7, time.Second, tBound), tBound); got != 7 {
		t.Errorf("refOfTS(v2s(7)) = %d", got)
	}
	if got := refOfTS(12345, tBound); got != 0 {
		t.Errorf("refOfTS(plain ts) = %d, want 0", got)
	}
}

func TestOpStrings(t *testing.T) {
	ops := []Op{OpCreateLockRef, OpAcquirePeek, OpAcquireGrant, OpCriticalPut,
		OpCriticalGet, OpReleaseLock, OpForcedRelease, OpEventualPut, OpEventualGet, Op(99)}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty name for op %d", int(op))
		}
	}
}

func TestValuesSurviveAcrossManyCriticalSections(t *testing.T) {
	// Values written under successive lockRefs keep increasing timestamps,
	// so each section reads its predecessor's write.
	fixture(t, Config{}, func(w *world) {
		var prev []byte
		for i := 0; i < 4; i++ {
			r := w.rep[i%3]
			ref, err := r.CreateLockRef("k")
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			awaitLock(t, w, r, "k", ref)
			got, err := r.CriticalGet("k", ref)
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if !bytes.Equal(got, prev) {
				t.Fatalf("section %d read %q, want %q", i, got, prev)
			}
			prev = []byte(fmt.Sprintf("round-%d", i))
			if err := r.CriticalPut("k", ref, prev); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			if err := r.ReleaseLock("k", ref); err != nil {
				t.Fatalf("release %d: %v", i, err)
			}
		}
	})
}
