package simnet

import (
	"runtime/debug"
	"testing"
	"time"
)

// multicastAllocCeiling bounds the allocations of one Multicast round with
// observability off: a 256-byte []byte echoed by three nodes, one per IUs
// site. Measured at 17: the request's encoding, then for each leg the
// decoded request (the bytes and their box), the reply's encoding and the
// decoded reply, and the result slice. Counted on Go 1.24 only. The ceiling
// is that plus 2 %, rounded up to a whole allocation, so a Go release that
// allocates one object more on this path still passes.
const multicastAllocCeiling = 18

// TestAllocCeilingMulticast pins what a simulated message allocates with
// observability off: only its encoded bytes and the copies its deliveries
// decode. The tasks, delivery records, reply waits and the result mailbox
// are all reused, and no span name or annotation is built. The simulated
// counterpart of nettrans's TestAllocCeilingCallFrame.
func TestAllocCeilingMulticast(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep wire's encoder pool warm
	v, n := buildNet(t, Config{})
	registerEcho(n)
	targets := n.Nodes()
	var req any = make([]byte, 256)
	var allocs float64
	err := v.Run(func() {
		round := func() {
			for _, r := range n.Multicast(0, targets, "echo", req, len(targets), time.Second) {
				if r.Err != nil {
					t.Errorf("leg to n%d: %v", r.From, r.Err)
				}
			}
		}
		for i := 0; i < 8; i++ { // fill the record, task and event pools
			round()
		}
		allocs = testing.AllocsPerRun(200, round)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("%.2f allocs per Multicast round (ceiling %d)", allocs, multicastAllocCeiling)
	if allocs > multicastAllocCeiling {
		t.Fatalf("%.2f allocs per Multicast round, ceiling %d", allocs, multicastAllocCeiling)
	}
}
