package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/store"
)

// Observability overhead guards: the same operation with the obs subsystem
// disabled (the default, nil-receiver no-op path) and enabled (metrics +
// untraced spans recorded). Run on the local profile so virtual-time
// scheduling cost, not simulated WAN latency, dominates the measurement:
//
//	go test ./internal/bench -bench Overhead -benchmem
//
// The disabled variant must track the pre-obs baseline (and allocate
// nothing in the obs layer, see internal/obs TestDisabledPathZeroAlloc);
// results are recorded in EXPERIMENTS.md.

func overheadWorld(traced bool) *musicWorld {
	if traced {
		return buildMUSICTraced(simnet.ProfileLocal, 1, core.ModeQuorum, 1)
	}
	return buildMUSIC(simnet.ProfileLocal, 1, core.ModeQuorum, 1)
}

func BenchmarkOverheadStoreQuorumPut(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("obs=%t", traced), func(b *testing.B) {
			w := overheadWorld(traced)
			cl := w.st.Client(w.net.Nodes()[0])
			row := store.Row{"v": {Value: []byte("x")}}
			b.ReportAllocs()
			b.ResetTimer()
			mustRun(w.rt, func() {
				for i := 0; i < b.N; i++ {
					if err := cl.Put("bench", "k", row, store.Quorum); err != nil {
						b.Fatalf("put: %v", err)
					}
				}
			})
		})
	}
}

func BenchmarkOverheadCriticalPut(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("obs=%t", traced), func(b *testing.B) {
			w := overheadWorld(traced)
			rep := w.reps[0]
			val := value(10)
			b.ReportAllocs()
			mustRun(w.rt, func() {
				ref, err := rep.CreateLockRef("bench")
				if err != nil {
					b.Fatalf("createLockRef: %v", err)
				}
				for {
					ok, err := rep.AcquireLock("bench", ref)
					if err != nil {
						b.Fatalf("acquireLock: %v", err)
					}
					if ok {
						break
					}
					w.rt.Sleep(time.Millisecond)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rep.CriticalPut("bench", ref, val); err != nil {
						b.Fatalf("criticalPut: %v", err)
					}
				}
			})
		})
	}
}
