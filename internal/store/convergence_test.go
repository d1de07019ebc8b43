package store

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestEventualConvergenceUnderChaos is a property test over random
// schedules: clients write from every site while partitions come and go;
// after the network heals and anti-entropy (handoff + read repair) runs,
// every replica holds the identical winning cell for every key.
func TestEventualConvergenceUnderChaos(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rt := sim.New(seed)
			rt.SetScheduleShuffle(true)
			net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
			c := New(net, Config{Timeout: 500 * time.Millisecond})

			err := rt.Run(func() {
				// Chaos: flip partitions a few times while writers run.
				rt.Go(func() {
					sites := simnet.ProfileIUs.Sites()
					for i := 0; i < 4; i++ {
						rt.Sleep(time.Duration(200+rt.Rand().Intn(400)) * time.Millisecond)
						victim := sites[rt.Rand().Intn(len(sites))]
						others := make([]string, 0, 2)
						for _, s := range sites {
							if s != victim {
								others = append(others, s)
							}
						}
						net.PartitionSites([]string{victim}, others)
						rt.Sleep(time.Duration(200+rt.Rand().Intn(300)) * time.Millisecond)
						net.Heal()
					}
				})

				done := sim.NewMailbox[struct{}](rt)
				const writers, writes, keys = 3, 8, 4
				for wi := 0; wi < writers; wi++ {
					wi := wi
					cl := c.Client(simnet.NodeID(wi))
					rt.Go(func() {
						defer done.Send(struct{}{})
						for i := 0; i < writes; i++ {
							key := fmt.Sprintf("k%d", rt.Rand().Intn(keys))
							val := fmt.Sprintf("w%d-%d", wi, i)
							// Quorum writes may fail during partitions;
							// that's allowed — the write may still land on
							// a minority and must not corrupt convergence.
							_ = cl.Put(tbl, key, Row{"v": Cell{Value: []byte(val)}}, Quorum)
							rt.Sleep(time.Duration(50+rt.Rand().Intn(150)) * time.Millisecond)
						}
					})
				}
				for wi := 0; wi < writers; wi++ {
					if _, err := done.RecvTimeout(10 * time.Minute); err != nil {
						t.Fatalf("writer stuck: %v", err)
					}
				}
				net.Heal()
				// Let hinted handoff retries drain, then force read repair
				// with ALL-consistency reads.
				rt.Sleep(30 * time.Second)
				for k := 0; k < keys; k++ {
					_, _ = c.Client(0).Get(tbl, fmt.Sprintf("k%d", k), All)
				}
				rt.Sleep(5 * time.Second)

				// Convergence: all replicas of each key agree exactly.
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("k%d", k)
					var ref Row
					for i, id := range c.ReplicasFor(key) {
						got := c.replicas[id].dump(tbl, key)
						if i == 0 {
							ref = got
							continue
						}
						if !sameRow(ref, got) {
							t.Errorf("key %s: replica %d diverged: %v vs %v", key, id, ref, got)
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}

func sameRow(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for col, ca := range a {
		cb, ok := b[col]
		if !ok || ca.TS != cb.TS || ca.Deleted != cb.Deleted || string(ca.Value) != string(cb.Value) {
			return false
		}
	}
	return true
}
