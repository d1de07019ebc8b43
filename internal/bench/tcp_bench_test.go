package bench

import (
	"fmt"
	"testing"
)

// BenchmarkTCPLockSection drives the full Table I critical section —
// createLockRef, acquireLock, criticalPut, criticalGet, releaseLock — over
// the real TCP loopback deployment, a fresh key per iteration. This is the
// profiling entry point for the message-plane hot path. gc-frac is the share
// of the process's CPU the garbage collector took over the timed loop:
//
//	go test ./internal/bench -bench TCPLockSection -cpuprofile cpu.prof
func BenchmarkTCPLockSection(b *testing.B) {
	back := newTCPLoopback()
	defer back.close()
	value := make([]byte, 256)
	b.ReportAllocs()
	var gc gcMeter
	b.ResetTimer()
	gc.start()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-%d", i)
		ref, err := back.cl.CreateLockRef(key)
		if err != nil {
			b.Fatalf("createLockRef: %v", err)
		}
		holder, err := back.cl.AcquireLock(key, ref)
		if err != nil || !holder {
			b.Fatalf("acquireLock: %v holder=%t", err, holder)
		}
		if err := back.cl.CriticalPut(key, ref, value); err != nil {
			b.Fatalf("criticalPut: %v", err)
		}
		if _, err := back.cl.CriticalGet(key, ref); err != nil {
			b.Fatalf("criticalGet: %v", err)
		}
		if err := back.cl.ReleaseLock(key, ref); err != nil {
			b.Fatalf("releaseLock: %v", err)
		}
	}
	b.StopTimer()
	gc.report(b)
}
