package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/loopback"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/music"
)

// BenchmarkTCPLockSection drives the full Table I critical section —
// createLockRef, acquireLock, criticalPut, criticalGet, releaseLock — over
// three nettrans nodes on 127.0.0.1, one per site, a fresh key per
// iteration. This is the profiling entry point for the message-plane hot
// path. gc-frac is the share
// of the process's CPU the garbage collector took over the timed loop:
//
//	go test ./internal/bench -bench TCPLockSection -cpuprofile cpu.prof
func BenchmarkTCPLockSection(b *testing.B) {
	clusters, err := loopback.Deploy(sim.NewReal(1), []string{"site-a", "site-b", "site-c"},
		nettrans.Config{}, nil, music.TransportConfig{T: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer clusters.Close()
	cl := clusters[0].Client("site-a")
	value := make([]byte, 256)
	b.ReportAllocs()
	var gc gcMeter
	b.ResetTimer()
	gc.start()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-%d", i)
		ref, err := cl.CreateLockRef(key)
		if err != nil {
			b.Fatalf("createLockRef: %v", err)
		}
		holder, err := cl.AcquireLock(key, ref)
		if err != nil || !holder {
			b.Fatalf("acquireLock: %v holder=%t", err, holder)
		}
		if err := cl.CriticalPut(key, ref, value); err != nil {
			b.Fatalf("criticalPut: %v", err)
		}
		if _, err := cl.CriticalGet(key, ref); err != nil {
			b.Fatalf("criticalGet: %v", err)
		}
		if err := cl.ReleaseLock(key, ref); err != nil {
			b.Fatalf("releaseLock: %v", err)
		}
	}
	b.StopTimer()
	gc.report(b)
}
