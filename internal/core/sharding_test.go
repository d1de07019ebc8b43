package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// shardWorld builds a 3-site virtual world whose site-0 replica runs with
// the given shard count (every shard coordinating through the same store
// client) and runs fn inside the simulation.
func shardWorld(t *testing.T, shards int, fn func(rt *sim.Virtual, rep *Replica)) {
	t.Helper()
	rt := sim.New(11)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	st := store.New(net, store.Config{Shards: shards})
	clients := make([]*store.Client, shards)
	for i := range clients {
		clients[i] = st.Client(0)
	}
	rep := NewReplicaSharded(clients, Config{})
	if err := rt.Run(func() { fn(rt, rep) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// runSection drives one full critical section on key through rep.
func runSection(rep *Replica, key string) error {
	ref, err := rep.CreateLockRef(key)
	if err != nil {
		return err
	}
	for {
		ok, err := rep.AcquireLock(key, ref)
		if err != nil {
			return err
		}
		if ok {
			break
		}
	}
	if err := rep.CriticalPut(key, ref, []byte("v")); err != nil {
		return err
	}
	if _, err := rep.CriticalGet(key, ref); err != nil {
		return err
	}
	return rep.ReleaseLock(key, ref)
}

// TestShardedSectionsAcrossShards runs sections on keys landing in every
// shard of a 4-shard plane and checks the values stick.
func TestShardedSectionsAcrossShards(t *testing.T) {
	shardWorld(t, 4, func(rt *sim.Virtual, rep *Replica) {
		hit := make(map[int]bool)
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("shard-key-%d", i)
			hit[store.ShardOf(key, 4)] = true
			if err := runSection(rep, key); err != nil {
				t.Fatalf("section %s: %v", key, err)
			}
		}
		if len(hit) != 4 {
			t.Fatalf("16 keys hit %d/4 shards", len(hit))
		}
		if rep.Shards() != 4 {
			t.Fatalf("Shards() = %d, want 4", rep.Shards())
		}
	})
}

// TestShardedSingleKeyNoExtraAllocs is the tentpole's AllocsPerRun gate:
// a single-key critical operation on a sharded plane must allocate no more
// than on the unsharded plane — shard routing is an index computation, not
// a hop. Both measurements run in the deterministic virtual simulator, so
// the comparison is exact.
func TestShardedSingleKeyNoExtraAllocs(t *testing.T) {
	measure := func(shards int) (put, get float64) {
		shardWorld(t, shards, func(rt *sim.Virtual, rep *Replica) {
			key := "alloc-key"
			ref, err := rep.CreateLockRef(key)
			if err != nil {
				panic(err)
			}
			for {
				ok, err := rep.AcquireLock(key, ref)
				if err != nil {
					panic(err)
				}
				if ok {
					break
				}
			}
			if err := rep.CriticalPut(key, ref, []byte("v")); err != nil {
				panic(err)
			}
			put = testing.AllocsPerRun(30, func() {
				if err := rep.CriticalPut(key, ref, []byte("v")); err != nil {
					panic(err)
				}
			})
			get = testing.AllocsPerRun(30, func() {
				if _, err := rep.CriticalGet(key, ref); err != nil {
					panic(err)
				}
			})
		})
		return put, get
	}
	put1, get1 := measure(1)
	put8, get8 := measure(8)
	if put8 > put1 {
		t.Errorf("CriticalPut allocates %v per op with 8 shards vs %v with 1 — sharding must be free for single-key ops", put8, put1)
	}
	if get8 > get1 {
		t.Errorf("CriticalGet allocates %v per op with 8 shards vs %v with 1", get8, get1)
	}
}
