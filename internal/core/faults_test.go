package core

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/lockstore"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// This file is the deterministic fault-injection campaign behind the
// §III-A failure semantics: seeded scenarios crash the coordinator mid-CAS,
// partition the client's site during the grant, and drop quorum acks
// mid-criticalPut, then assert that retrying per the paper's client
// obligations — possibly at another MUSIC replica — completes the critical
// section after the fault heals with ECF intact: no lost acknowledged
// writes and no resurrected failed ones.

// faultSeeds returns the campaign's seed set: MUSIC_FAULT_SEEDS (a comma-
// separated list, how scripts/check.sh pins the campaign) or a fixed
// default, trimmed under -short.
func faultSeeds(t *testing.T) []int64 {
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

// faultWorld is one fresh 3-site deployment (one store node + MUSIC replica
// per site, IUs profile) with a short store timeout so unavailability
// surfaces quickly in virtual time.
type faultWorld struct {
	rt   *sim.Virtual
	net  *simnet.Network
	st   *store.Cluster
	reps []*Replica
}

func newFaultWorld(seed int64, cfg Config) *faultWorld {
	rt := sim.New(seed)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	st := store.New(net, store.Config{Timeout: 500 * time.Millisecond})
	w := &faultWorld{rt: rt, net: net, st: st}
	for i := 0; i < 3; i++ {
		w.reps = append(w.reps, NewReplica(st.Client(simnet.NodeID(i)), cfg))
	}
	return w
}

// isTransient is the core-level retryability taxonomy (mirrored by
// music.IsRetryable for the public API).
func isTransient(err error) bool {
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, store.ErrContention) ||
		errors.Is(err, lockstore.ErrContention) ||
		errors.Is(err, ErrNotLockHolder)
}

// awaitAt polls AcquireLock at one replica until granted or the deadline,
// treating transient errors as "not yet" — the client obligation of §III-A.
func awaitAt(rt *sim.Virtual, rep *Replica, key string, ref int64, timeout time.Duration) error {
	deadline := rt.Now() + timeout
	for {
		ok, err := rep.AcquireLock(key, ref)
		if err != nil && !isTransient(err) {
			return err
		}
		if ok {
			return nil
		}
		if rt.Now() >= deadline {
			return fmt.Errorf("await %s/%d: timed out after %v", key, ref, timeout)
		}
		rt.Sleep(10 * time.Millisecond)
	}
}

// retryTransient re-drives op with backoff while it fails transiently.
func retryTransient(rt *sim.Virtual, op func() error) error {
	var err error
	for i := 0; i < 60; i++ {
		if err = op(); err == nil || !isTransient(err) {
			return err
		}
		rt.Sleep(200 * time.Millisecond)
	}
	return err
}

// verifySection runs one more full critical section at rep and asserts the
// value it reads — the end-to-end ECF check that the campaign's surviving
// write is the true value and nothing older resurrected.
func verifySection(t *testing.T, w *faultWorld, rep *Replica, key, want string) {
	t.Helper()
	var ref int64
	if err := retryTransient(w.rt, func() error {
		r, err := rep.CreateLockRef(key)
		if err == nil {
			ref = r
		}
		return err
	}); err != nil {
		t.Fatalf("verify createLockRef: %v", err)
	}
	if err := awaitAt(w.rt, rep, key, ref, 5*time.Minute); err != nil {
		t.Fatalf("verify await: %v", err)
	}
	var got []byte
	if err := retryTransient(w.rt, func() error {
		v, err := rep.CriticalGet(key, ref)
		if err == nil {
			got = v
		}
		return err
	}); err != nil {
		t.Fatalf("verify criticalGet: %v", err)
	}
	if string(got) != want {
		t.Errorf("verify section read %q, want %q", got, want)
	}
	if err := retryTransient(w.rt, func() error { return rep.ReleaseLock(key, ref) }); err != nil {
		t.Fatalf("verify release: %v", err)
	}
}

// TestFaultCoordinatorCrashMidCreateLockRef crashes the client's
// coordinator at a seed-dependent phase of the enqueue LWT. Whatever the
// CAS's fate (never proposed, in-progress and completed by a competing
// proposer, or fully applied with the issuing client presumed dead), a
// retry at another site must eventually complete a full critical section:
// the potentially stranded head is reaped after OrphanTimeout and the next
// grant synchronizes (§IV-B a).
func TestFaultCoordinatorCrashMidCreateLockRef(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newFaultWorld(seed, Config{T: 30 * time.Second, OrphanTimeout: 2 * time.Second})
			const key = "crash-mid-cas"
			err := w.rt.Run(func() {
				delay := time.Duration(5+w.rt.Rand().Intn(250)) * time.Millisecond
				w.rt.After(delay, func() { w.net.Crash(0) })
				if _, err := w.reps[0].CreateLockRef(key); err != nil && !isTransient(err) {
					t.Errorf("crash-interrupted enqueue: terminal error %v, want transient", err)
				}

				// §III-A: the client retries at another MUSIC replica. Its
				// fresh reference queues behind any stranded head, which the
				// acquire poll reaps after OrphanTimeout.
				rep := w.reps[1]
				var ref int64
				if err := retryTransient(w.rt, func() error {
					r, err := rep.CreateLockRef(key)
					if err == nil {
						ref = r
					}
					return err
				}); err != nil {
					t.Fatalf("failover createLockRef: %v", err)
				}
				if err := awaitAt(w.rt, rep, key, ref, 5*time.Minute); err != nil {
					t.Fatalf("failover await: %v", err)
				}
				if err := retryTransient(w.rt, func() error {
					return rep.CriticalPut(key, ref, []byte("failover-write"))
				}); err != nil {
					t.Fatalf("failover criticalPut: %v", err)
				}
				if err := retryTransient(w.rt, func() error { return rep.ReleaseLock(key, ref) }); err != nil {
					t.Fatalf("failover release: %v", err)
				}

				// Heal and verify from the restarted site itself.
				w.net.Restart(0)
				w.rt.Sleep(5 * time.Second)
				verifySection(t, w, w.reps[0], key, "failover-write")
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestFaultPartitionDuringGrant isolates the client's site exactly when the
// grant-path synchFlag quorum read would run, so AcquireLock fails with
// ErrUnavailable at the minority site; retrying the same lockRef at a
// majority-side replica grants and completes the section, and after heal
// the write is the true value everywhere.
func TestFaultPartitionDuringGrant(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newFaultWorld(seed, Config{T: 30 * time.Second})
			const key = "partition-grant"
			err := w.rt.Run(func() {
				ref, err := w.reps[0].CreateLockRef(key)
				if err != nil {
					t.Fatalf("createLockRef: %v", err)
				}
				w.rt.Sleep(2 * time.Second) // let the enqueue replicate everywhere
				w.net.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})

				ok, err := w.reps[0].AcquireLock(key, ref)
				if ok || !errors.Is(err, ErrUnavailable) {
					t.Fatalf("minority-site grant = (%v, %v), want ErrUnavailable", ok, err)
				}

				// Same lockRef, another replica (§III-A).
				rep := w.reps[1]
				if err := awaitAt(w.rt, rep, key, ref, 5*time.Minute); err != nil {
					t.Fatalf("failover await: %v", err)
				}
				if err := retryTransient(w.rt, func() error {
					return rep.CriticalPut(key, ref, []byte("granted-elsewhere"))
				}); err != nil {
					t.Fatalf("failover criticalPut: %v", err)
				}
				if err := retryTransient(w.rt, func() error { return rep.ReleaseLock(key, ref) }); err != nil {
					t.Fatalf("failover release: %v", err)
				}

				w.net.Heal()
				w.rt.Sleep(2 * time.Second)
				verifySection(t, w, w.reps[0], key, "granted-elsewhere")
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestFaultAckLossMidCriticalPut drops quorum acks mid-criticalPut: under
// heavy message loss puts fail transiently (and may survive on a minority
// of replicas anyway — store.Put documents no rollback); after the heal the
// client re-drives its final put, and ECF requires the true value to be
// exactly that last acknowledged put, with no earlier failed attempt
// resurrecting.
func TestFaultAckLossMidCriticalPut(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newFaultWorld(seed, Config{T: 10 * time.Minute})
			const key = "lossy-puts"
			err := w.rt.Run(func() {
				rep := w.reps[0]
				ref, err := rep.CreateLockRef(key)
				if err != nil {
					t.Fatalf("createLockRef: %v", err)
				}
				if err := awaitAt(w.rt, rep, key, ref, time.Minute); err != nil {
					t.Fatalf("await: %v", err)
				}
				if err := rep.CriticalPut(key, ref, []byte("p0")); err != nil {
					t.Fatalf("healthy put: %v", err)
				}

				w.net.SetLossRate(0.5)
				for i := 1; i <= 3; i++ {
					err := rep.CriticalPut(key, ref, []byte(fmt.Sprintf("p%d", i)))
					if err != nil && !isTransient(err) {
						t.Fatalf("lossy put p%d: terminal error %v, want transient", i, err)
					}
					w.rt.Sleep(50 * time.Millisecond)
				}

				// Heal, re-drive the final put until acknowledged, release.
				w.net.SetLossRate(0)
				if err := retryTransient(w.rt, func() error {
					return rep.CriticalPut(key, ref, []byte("p4"))
				}); err != nil {
					t.Fatalf("post-heal criticalPut: %v", err)
				}
				if err := retryTransient(w.rt, func() error { return rep.ReleaseLock(key, ref) }); err != nil {
					t.Fatalf("release: %v", err)
				}

				w.rt.Sleep(2 * time.Second)
				verifySection(t, w, w.reps[2], key, "p4")
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestSetGrantRetriedSurvivesTransientLoss pins the grant-cell hardening:
// even when the quorum write behind SetGrant fails transiently at grant
// time, the background retry lands it, so a failover replica sees the head
// as granted (StartTime > 0) rather than misclassifying it as an orphan and
// stalling OrphanTimeout.
func TestSetGrantRetriedSurvivesTransientLoss(t *testing.T) {
	w := newFaultWorld(42, Config{T: 30 * time.Second})
	const key = "grant-cell"
	err := w.rt.Run(func() {
		rep := w.reps[0]
		ref, err := rep.CreateLockRef(key)
		if err != nil {
			t.Fatalf("createLockRef: %v", err)
		}
		// Heavy loss while the grant (and its async SetGrant) happens.
		w.net.SetLossRate(0.6)
		if err := awaitAt(w.rt, rep, key, ref, 2*time.Minute); err != nil {
			t.Fatalf("await under loss: %v", err)
		}
		w.net.SetLossRate(0)
		// The retried grant-cell write must land within the backoff budget.
		deadline := w.rt.Now() + time.Minute
		for {
			queue, err := w.reps[1].shardFor(key).ls.Queue(key)
			if err == nil && len(queue) > 0 && queue[0].Ref == ref && queue[0].StartTime > 0 {
				break
			}
			if w.rt.Now() >= deadline {
				t.Fatal("grant cell never replicated despite retries")
			}
			w.rt.Sleep(100 * time.Millisecond)
		}
		if err := retryTransient(w.rt, func() error { return rep.ReleaseLock(key, ref) }); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
