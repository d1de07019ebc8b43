package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// heldOf returns what r's grant record for key knows of the value.
func heldOf(r *Replica, key string) heldValue {
	s := r.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grants[key].held
}

func TestAcquireLockSeedsValue(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		const key = "seeded"

		// First-ever grant: the piggybacked read sees no value.
		ref1, err := w.rep[0].CreateLockRef(key)
		if err != nil {
			t.Fatalf("CreateLockRef: %v", err)
		}
		awaitLock(t, w, w.rep[0], key, ref1)
		if seed := heldOf(w.rep[0], key); !seed.known || seed.present {
			t.Fatalf("fresh-key seed = %+v, want known && !present", seed)
		}
		if err := w.rep[0].CriticalPut(key, ref1, []byte("v1")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		// Idempotent re-acquire performs no quorum read and leaves the record
		// — now holding the section's write — alone.
		before := heldOf(w.rep[0], key)
		if ok, err := w.rep[0].AcquireLock(key, ref1); err != nil || !ok {
			t.Fatalf("re-acquire = %v, %v", ok, err)
		}
		if after := heldOf(w.rep[0], key); after.seq != before.seq || string(after.value) != "v1" {
			t.Fatalf("re-acquire changed the held value: %+v -> %+v", before, after)
		}
		if err := w.rep[0].ReleaseLock(key, ref1); err != nil {
			t.Fatalf("ReleaseLock: %v", err)
		}

		// The next holder — at a different site — is seeded with the value
		// the previous section wrote, fetched by the grant quorum read.
		ref2, err := w.rep[1].CreateLockRef(key)
		if err != nil {
			t.Fatalf("CreateLockRef 2: %v", err)
		}
		awaitLock(t, w, w.rep[1], key, ref2)
		if seed := heldOf(w.rep[1], key); !seed.known || !seed.present || !bytes.Equal(seed.value, []byte("v1")) {
			t.Fatalf("seed after write = %+v, want known && present && v1", seed)
		}
	})
}

func TestSeedAfterForcedReleaseSynchronization(t *testing.T) {
	fixture(t, Config{}, func(w *world) {
		const key = "sync-seed"
		ref1, _ := w.rep[0].CreateLockRef(key)
		awaitLock(t, w, w.rep[0], key, ref1)
		if err := w.rep[0].CriticalPut(key, ref1, []byte("preempted")); err != nil {
			t.Fatalf("CriticalPut: %v", err)
		}
		if err := w.rep[1].ForcedRelease(key, ref1); err != nil {
			t.Fatalf("ForcedRelease: %v", err)
		}

		// The grant after a forced release runs synchronize; its seed is the
		// value the synchronization re-stamped.
		ref2, _ := w.rep[2].CreateLockRef(key)
		awaitLock(t, w, w.rep[2], key, ref2)
		seed := heldOf(w.rep[2], key)
		if !seed.known || !seed.present || !bytes.Equal(seed.value, []byte("preempted")) {
			t.Fatalf("post-synchronize seed = %+v, want known && present && preempted", seed)
		}
		got, err := w.rep[2].CriticalGet(key, ref2)
		if err != nil || !bytes.Equal(got, seed.value) {
			t.Fatalf("CriticalGet = %q, %v; want seed value %q", got, err, seed.value)
		}
	})
}

func TestCriticalCheckGuards(t *testing.T) {
	fixture(t, Config{T: 5 * time.Second}, func(w *world) {
		const key = "check"
		ref, _ := w.rep[0].CreateLockRef(key)
		awaitLock(t, w, w.rep[0], key, ref)
		if err := w.rep[0].CriticalCheck(key, ref); err != nil {
			t.Fatalf("holder CriticalCheck: %v", err)
		}
		// A contender queued behind the holder is not the lock holder.
		ref2, _ := w.rep[1].CreateLockRef(key)
		w.rt.Sleep(time.Second)
		if err := w.rep[1].CriticalCheck(key, ref2); !errors.Is(err, ErrNotLockHolder) {
			t.Fatalf("contender CriticalCheck = %v, want ErrNotLockHolder", err)
		}
		// Past T the check self-preempts, like every critical-op guard.
		w.rt.Sleep(5 * time.Second)
		if err := w.rep[0].CriticalCheck(key, ref); !errors.Is(err, ErrExpired) {
			t.Fatalf("expired CriticalCheck = %v, want ErrExpired", err)
		}
	})
}
