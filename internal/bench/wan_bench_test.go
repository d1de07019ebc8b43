package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/music"
)

// BenchmarkWANSection is the virtual-time counterpart of
// BenchmarkTCPLockSection: the same Table I critical section on a fresh key
// per iteration, over the simulated IUs WAN (Table II round trips) with
// three clients, one per site, running side by side as the wan_section
// workload does. Virtual time costs nothing, so what it measures is the
// wall-clock CPU of the simulator and the stack above it per section — the
// profiling entry point for the virtual-time plane:
//
//	go test ./internal/bench -run XXX -bench WANSection -cpuprofile cpu.prof
func BenchmarkWANSection(b *testing.B) {
	v := sim.New(1)
	c, err := music.NewOverTransport(simnet.New(v, simnet.Config{Profile: simnet.ProfileIUs, Seed: 1}), music.TransportConfig{})
	if err != nil {
		b.Fatalf("deploy: %v", err)
	}
	sites := simnet.ProfileIUs.Sites()
	value := make([]byte, 256)
	b.ReportAllocs()
	var failed error
	err = v.Run(func() {
		done := sim.NewMailbox[error](v)
		b.ResetTimer()
		for i, site := range sites {
			cl := c.Client(site)
			v.Go(func() {
				for n := i; n < b.N; n += len(sites) {
					if err := wanSection(cl, fmt.Sprintf("bench-%d", n), value); err != nil {
						done.Send(err)
						return
					}
				}
				done.Send(nil)
			})
		}
		for range sites {
			if err, _ := done.Recv(); err != nil && failed == nil {
				failed = err
			}
		}
		b.StopTimer()
	})
	if err == nil {
		err = failed
	}
	if err != nil {
		b.Fatal(err)
	}
}

// wanSection runs one Table I section on key through cl.
func wanSection(cl *music.Client, key string, value []byte) error {
	ref, err := cl.CreateLockRef(key)
	if err != nil {
		return fmt.Errorf("createLockRef: %w", err)
	}
	if err := cl.AwaitLock(key, ref, time.Minute); err != nil {
		return fmt.Errorf("awaitLock: %w", err)
	}
	if err := cl.CriticalPut(key, ref, value); err != nil {
		return fmt.Errorf("criticalPut: %w", err)
	}
	if _, err := cl.CriticalGet(key, ref); err != nil {
		return fmt.Errorf("criticalGet: %w", err)
	}
	if err := cl.ReleaseLock(key, ref); err != nil {
		return fmt.Errorf("releaseLock: %w", err)
	}
	return nil
}
