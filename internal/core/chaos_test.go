package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// TestChaosECFUnderFalseDetection drives contending clients through
// critical sections while an adversarial "failure detector" forcibly
// releases the current lockholder at random moments (the paper's false
// failure detection) and the scheduler explores randomized interleavings.
// It then checks the end-to-end ECF consequences on the observed history:
//
//   - distinct lockRefs across successful sections (exclusivity of grants);
//   - no successful section reads state older than the newest fully
//     completed earlier section (latest state): every value read was
//     written under a lockRef no older than the last full section's, i.e.
//     committed-and-released updates are never lost;
//   - every value ever read was actually written by some section (no
//     corruption).
func TestChaosECFUnderFalseDetection(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

// record is one client's attempt at a critical section.
type record struct {
	ref    int64
	read   string // value observed by criticalGet ("" = none)
	wrote  string // value attempted by criticalPut
	putAck bool   // put acknowledged
	full   bool   // get+put+release all succeeded, never preempted
}

func runChaos(t *testing.T, seed int64) {
	t.Helper()
	rt := sim.New(seed)
	rt.SetScheduleShuffle(true)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	st := store.New(net, store.Config{})
	reps := make([]*Replica, 3)
	for i := range reps {
		reps[i] = NewReplica(st.Client(simnet.NodeID(i)), Config{T: 30 * time.Second})
	}

	const key = "chaos"
	var records []*record

	err := rt.Run(func() {
		// The adversary: randomly preempts whatever lockRef is at the head,
		// regardless of whether its holder is alive (false detection).
		stopChaos := false
		rt.Go(func() {
			for !stopChaos {
				rt.Sleep(time.Duration(50+rt.Rand().Intn(400)) * time.Millisecond)
				if head, ok, err := reps[2].shardFor(key).ls.Peek(key); err == nil && ok {
					_ = reps[2].ForcedRelease(key, head.Ref)
				}
			}
		})

		done := sim.NewMailbox[struct{}](rt)
		const clients, rounds = 3, 3
		for ci := 0; ci < clients; ci++ {
			ci := ci
			rep := reps[ci]
			rt.Go(func() {
				defer done.Send(struct{}{})
				for round := 0; round < rounds; round++ {
					rec := &record{wrote: fmt.Sprintf("c%d-r%d", ci, round)}
					records = append(records, rec)

					ref, err := rep.CreateLockRef(key)
					if err != nil {
						continue
					}
					rec.ref = ref
					acquired := false
					for tries := 0; tries < 3000; tries++ {
						ok, err := rep.AcquireLock(key, ref)
						if err != nil {
							break // preempted while waiting
						}
						if ok {
							acquired = true
							break
						}
						rt.Sleep(5 * time.Millisecond)
					}
					if !acquired {
						_ = rep.ReleaseLock(key, ref) // evict our reference
						continue
					}

					v, err := rep.CriticalGet(key, ref)
					if err != nil {
						continue
					}
					rec.read = string(v)

					if err := rep.CriticalPut(key, ref, []byte(rec.wrote)); err != nil {
						continue
					}
					rec.putAck = true

					if err := rep.ReleaseLock(key, ref); err != nil {
						continue
					}
					// ReleaseLock succeeds silently even when the section
					// was forcibly preempted (§IV-A), so "full" also
					// requires our write to have survived as the true
					// value: a quorum read right after release. (A racing
					// next writer makes this check conservatively false.)
					row, err := st.Client(simnet.NodeID(ci)).Read(DataTable, key, []string{colValue}, store.Quorum)
					if err == nil {
						if v, ok := row.Live(colValue); ok && string(v) == rec.wrote {
							rec.full = true
						}
					}
				}
			})
		}
		for i := 0; i < clients; i++ {
			if _, err := done.RecvTimeout(30 * time.Minute); err != nil {
				t.Errorf("client never finished: %v", err)
				return
			}
		}
		stopChaos = true
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	checkChaosHistory(t, records)
}

func checkChaosHistory(t *testing.T, records []*record) {
	t.Helper()
	// Index writes by value.
	writerRef := make(map[string]int64)
	refs := make(map[int64]bool)
	fullCount := 0
	for _, r := range records {
		if r.ref == 0 {
			continue
		}
		if r.wrote != "" {
			writerRef[r.wrote] = r.ref
		}
		if r.full {
			fullCount++
			if refs[r.ref] {
				t.Errorf("two full sections share lockRef %d", r.ref)
			}
			refs[r.ref] = true
		}
	}

	// Order successful sections by lockRef (the lock's serialization
	// order) and check the latest-state property against full sections.
	var ordered []*record
	for _, r := range records {
		if r.ref != 0 && r.read != "" || (r.ref != 0 && r.full) {
			ordered = append(ordered, r)
		}
	}
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j].ref < ordered[i].ref {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}

	lastFull := int64(0)
	for _, r := range ordered {
		if r.read != "" {
			wref, known := writerRef[r.read]
			if !known {
				t.Errorf("section ref %d read unwritten value %q", r.ref, r.read)
			} else if wref < lastFull {
				t.Errorf("section ref %d read %q (writer ref %d), older than last full section ref %d — lost update",
					r.ref, r.read, wref, lastFull)
			}
		} else if r.full && lastFull > 0 {
			t.Errorf("section ref %d read no value although full section ref %d wrote one", r.ref, lastFull)
		}
		if r.full {
			lastFull = r.ref
		}
	}

	if fullCount == 0 {
		t.Log("warning: chaos so aggressive that no section completed fully")
	}
}

// TestChaosPartitionMidSectionFailover partitions the lockholder's site in
// the middle of a critical section — after one acknowledged put, with a
// second put failing unacknowledged into the minority — and resumes the
// same lockRef at a majority-side replica. ECF requires the failover
// replica to read the last acknowledged put (latest state), accept new
// writes, and the section's final value to survive the heal with the
// minority straggler never resurrecting.
func TestChaosPartitionMidSectionFailover(t *testing.T) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newFaultWorld(seed, Config{T: 10 * time.Minute})
			const key = "midsection"
			err := w.rt.Run(func() {
				rep := w.reps[0]
				ref, err := rep.CreateLockRef(key)
				if err != nil {
					t.Fatalf("createLockRef: %v", err)
				}
				if err := awaitAt(w.rt, rep, key, ref, time.Minute); err != nil {
					t.Fatalf("await: %v", err)
				}
				if err := rep.CriticalPut(key, ref, []byte("acked-1")); err != nil {
					t.Fatalf("acked put: %v", err)
				}
				// Give the async grant-cell write a moment to replicate, then
				// cut the holder's site off mid-section.
				w.rt.Sleep(time.Second)
				w.net.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
				if err := rep.CriticalPut(key, ref, []byte("straggler")); !errors.Is(err, ErrUnavailable) {
					t.Fatalf("minority put err = %v, want ErrUnavailable", err)
				}

				// Resume the same lockRef at a majority-side replica: it must
				// adopt the replicated grant (no fresh T window) and read the
				// last acknowledged put.
				rep2 := w.reps[1]
				if err := awaitAt(w.rt, rep2, key, ref, time.Minute); err != nil {
					t.Fatalf("failover await: %v", err)
				}
				v, err := rep2.CriticalGet(key, ref)
				if err != nil {
					t.Fatalf("failover criticalGet: %v", err)
				}
				if string(v) != "acked-1" {
					t.Fatalf("failover read %q, want acked-1 (last acknowledged put)", v)
				}
				if err := rep2.CriticalPut(key, ref, []byte("acked-2")); err != nil {
					t.Fatalf("failover criticalPut: %v", err)
				}
				if err := retryTransient(w.rt, func() error { return rep2.ReleaseLock(key, ref) }); err != nil {
					t.Fatalf("failover release: %v", err)
				}

				w.net.Heal()
				w.rt.Sleep(2 * time.Second)
				verifySection(t, w, w.reps[0], key, "acked-2")
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

// TestCriticalSectionsSurviveMessageLoss exercises the §III-A failure
// semantics: with lossy links, individual quorum operations may fail with
// ErrUnavailable, and retrying (per the paper's client obligations) must
// eventually complete the critical section without violating exclusivity.
func TestCriticalSectionsSurviveMessageLoss(t *testing.T) {
	rt := sim.New(77)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	st := store.New(net, store.Config{Timeout: 800 * time.Millisecond})
	rep := NewReplica(st.Client(0), Config{T: time.Minute})
	net.SetLossRate(0.03)

	err := rt.Run(func() {
		retry := func(op func() error) error {
			var err error
			for i := 0; i < 25; i++ {
				err = op()
				if err == nil || !errors.Is(err, ErrUnavailable) {
					return err
				}
				rt.Sleep(100 * time.Millisecond)
			}
			return err
		}

		var ref int64
		if err := retry(func() error {
			r, err := rep.CreateLockRef("k")
			if err == nil {
				ref = r
			}
			return err
		}); err != nil {
			t.Fatalf("createLockRef under loss: %v", err)
		}
		for i := 0; i < 5000; i++ {
			ok, err := rep.AcquireLock("k", ref)
			if err != nil && !errors.Is(err, ErrUnavailable) {
				t.Fatalf("acquire: %v", err)
			}
			if ok {
				break
			}
			rt.Sleep(10 * time.Millisecond)
		}
		if err := retry(func() error { return rep.CriticalPut("k", ref, []byte("lossy")) }); err != nil {
			t.Fatalf("criticalPut under loss: %v", err)
		}
		var got []byte
		if err := retry(func() error {
			v, err := rep.CriticalGet("k", ref)
			if err == nil {
				got = v
			}
			return err
		}); err != nil {
			t.Fatalf("criticalGet under loss: %v", err)
		}
		if string(got) != "lossy" {
			t.Fatalf("read %q, want lossy", got)
		}
		if err := retry(func() error { return rep.ReleaseLock("k", ref) }); err != nil {
			t.Fatalf("release under loss: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
