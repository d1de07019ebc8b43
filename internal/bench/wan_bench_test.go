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
// that CPU the garbage collector took, and handoffs/op the switches between
// worker coroutines the simulator made per section (sim.Virtual.Handoffs):
//
//	go test ./internal/bench -run XXX -bench WANSection -cpuprofile cpu.prof
func BenchmarkWANSection(b *testing.B) {
	b.ReportAllocs()
	var gc gcMeter
	var handoffs uint64
	start := func(v *sim.Virtual) {
		b.ResetTimer()
		gc.start()
		handoffs = v.Handoffs()
	}
	stop := func(v *sim.Virtual) {
		b.StopTimer()
		handoffs = v.Handoffs() - handoffs
	}
	if err := runWANSections(b.N, start, stop); err != nil {
		b.Fatal(err)
	}
	gc.report(b)
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}

// TestAllocCeilingWANSection's bounds. The count is the allocations per
// section measured with an interned wire vocabulary, messages encoded into
// their records' own buffers, a map-free store read edge and the static
// ring's replica sets built once (303), plus 2 % rounded up. The bytes are
// those measured then (19 647 B, Go 1.24) plus 10 %, since map and slice
// sizes differ between Go releases. What is left is the protocol's own: the
// decoded copies each handler keeps (keys, cell values, rows, the boxed
// message), the rows lockstore writes and the quorum result slices. With a
// decoded copy of every table and column name, a fresh buffer per encoded
// message and a Row map per read, a section made 522 allocations of 29 KB;
// with a fresh task, closure and Timer per delivery, a promise per call and
// a mailbox per multicast, 1636 of 81 KB.
const (
	wanSectionAllocCeiling      = 310
	wanSectionAllocBytesCeiling = 21612
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
	err := runWANSections(sections, func(*sim.Virtual) {
		runtime.ReadMemStats(&ms)
		mallocs, bytes = ms.Mallocs, ms.TotalAlloc
	}, func(*sim.Virtual) { runtime.ReadMemStats(&ms) })
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

// TestHandoffCeilingWANSection's bound: the worker hand-offs per section
// measured with deliveries, replies and multicast legs as steps (18.4),
// plus 2 %. What is left is the client tasks resuming one another and the
// tasks the stack spawns. With each of those a task, a section made 143.4.
const wanSectionHandoffCeiling = 18.8

// TestHandoffCeilingWANSection pins the worker hand-offs per section of
// BenchmarkWANSection's shape. The count depends only on the schedule, so
// it is the same on every host and Go release; a simulated RPC stage that
// becomes a task again fails here by name.
func TestHandoffCeilingWANSection(t *testing.T) {
	const sections = 600
	var before, after uint64
	err := runWANSections(sections, func(v *sim.Virtual) { before = v.Handoffs() }, func(v *sim.Virtual) { after = v.Handoffs() })
	if err != nil {
		t.Fatal(err)
	}
	per := float64(after-before) / sections
	t.Logf("%.1f hand-offs per section (ceiling %.1f)", per, wanSectionHandoffCeiling)
	if per > wanSectionHandoffCeiling {
		t.Errorf("%.1f hand-offs per section, ceiling %.1f", per, wanSectionHandoffCeiling)
	}
}

// runWANSections runs n Table I sections on fresh keys over the simulated
// IUs WAN (Table II round trips) with three clients, one per site, side by
// side, as the wan_section workload does. start runs once the cluster is
// built, stop after the last section; both are handed the runtime.
func runWANSections(n int, start, stop func(*sim.Virtual)) error {
	v := sim.New(1)
	c, err := music.NewOverTransport(simnet.New(v, simnet.Config{Profile: simnet.ProfileIUs}), music.TransportConfig{})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	sites := simnet.ProfileIUs.Sites()
	value := make([]byte, 256)
	var failed error
	err = v.Run(func() {
		done := sim.NewMailbox[error](v)
		start(v)
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
		stop(v)
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
