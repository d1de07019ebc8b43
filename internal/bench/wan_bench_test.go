package bench

import (
	"fmt"
	"runtime"
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
// profiling entry point for the virtual-time plane. gc-frac is the share of
// that CPU the garbage collector took:
//
//	go test ./internal/bench -run XXX -bench WANSection -cpuprofile cpu.prof
func BenchmarkWANSection(b *testing.B) {
	b.ReportAllocs()
	var gc gcMeter
	start := func() {
		b.ResetTimer()
		gc.start()
	}
	if err := runWANSections(b.N, start, b.StopTimer); err != nil {
		b.Fatal(err)
	}
	gc.report(b)
}

// TestAllocCeilingWANSection's bounds. The count is the allocations per
// section measured with pooled tasks and message records, closure-free
// deliveries and obs-off tracing that builds nothing (522), plus 2 %. The
// bytes are those measured then (29 278 B, Go 1.24) plus 10 %, since map
// and slice sizes differ between Go releases. What is left is the
// protocol's own: encoded messages and their decoded copies, rows and the
// store.Client edge's maps. With a fresh task, closure and Timer per
// delivery, a promise per call and a mailbox per multicast, a section made
// 1636 allocations of 81 KB.
const (
	wanSectionAllocCeiling      = 532
	wanSectionAllocBytesCeiling = 32206
)

// TestAllocCeilingWANSection pins the allocations and allocated bytes per
// section of BenchmarkWANSection's shape: the simulator, the simulated
// network and the whole MUSIC stack above them, with observability off.
func TestAllocCeilingWANSection(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const sections = 600
	var ms runtime.MemStats
	var mallocs, bytes uint64
	err := runWANSections(sections, func() {
		runtime.ReadMemStats(&ms)
		mallocs, bytes = ms.Mallocs, ms.TotalAlloc
	}, func() { runtime.ReadMemStats(&ms) })
	if err != nil {
		t.Fatal(err)
	}
	per := float64(ms.Mallocs-mallocs) / sections
	perBytes := float64(ms.TotalAlloc-bytes) / sections
	t.Logf("%.0f allocs, %.0f B per section (ceilings %d, %d B)", per, perBytes, wanSectionAllocCeiling, wanSectionAllocBytesCeiling)
	if per > wanSectionAllocCeiling {
		t.Errorf("%.0f allocs per section, ceiling %d", per, wanSectionAllocCeiling)
	}
	if perBytes > wanSectionAllocBytesCeiling {
		t.Errorf("%.0f B allocated per section, ceiling %d B", perBytes, wanSectionAllocBytesCeiling)
	}
}

// runWANSections runs n Table I sections on fresh keys over the simulated
// IUs WAN (Table II round trips) with three clients, one per site, side by
// side, as the wan_section workload does. start runs once the cluster is
// built, stop after the last section.
func runWANSections(n int, start, stop func()) error {
	v := sim.New(1)
	c, err := music.NewOverTransport(simnet.New(v, simnet.Config{Profile: simnet.ProfileIUs, Seed: 1}), music.TransportConfig{})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	sites := simnet.ProfileIUs.Sites()
	value := make([]byte, 256)
	var failed error
	err = v.Run(func() {
		done := sim.NewMailbox[error](v)
		start()
		for i, site := range sites {
			cl := c.Client(site)
			v.Go(func() {
				for k := i; k < n; k += len(sites) {
					if err := wanSection(cl, fmt.Sprintf("bench-%d", k), value); err != nil {
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
		stop()
	})
	if err == nil {
		err = failed
	}
	return err
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
