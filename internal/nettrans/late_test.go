package nettrans_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nettrans"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
)

// TestMulticastLateSettleRace hammers the race between MulticastLate's
// early return and the reply pump: need 1 is met by the synchronous
// self-leg, so both remote legs are settled while their replies are in
// flight — some still pending (swapped for late entries), some already
// claimed by the pump (drained on the caller). One target sometimes answers
// after the deadline, so late entries also die by timer, racing the reply.
// Every leg must end up either in the returned slice or reported to late,
// exactly once, and once every deadline has passed the pending table must
// be empty. Run it under -race with a high -count.
func TestMulticastLateSettleRace(t *testing.T) {
	c := newCluster(t, 3)
	defer c.Close()
	ts := []*nettrans.Transport{c.ts[0], c.ts[1], c.ts[2]}
	const timeout = 20 * time.Millisecond
	var slowTurn atomic.Int64
	for i, tr := range ts {
		id := transport.NodeID(i)
		tr.Handle(id, "late.echo", func(from transport.NodeID, req any) (any, error) {
			return req, nil
		})
		tr.HandleInline(id, "late.inline", func(from transport.NodeID, req any) (any, error) {
			return req, nil
		}, 0, 0)
		tr.Handle(id, "late.slow", func(from transport.NodeID, req any) (any, error) {
			if id == 2 && slowTurn.Add(1)%3 == 0 {
				time.Sleep(timeout + time.Duration(slowTurn.Load()%5)*time.Millisecond)
			}
			return req, nil
		})
	}
	targets := []transport.NodeID{0, 1, 2}
	const workers, rounds = 4, 150
	var returned, reported, timedOut atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				svc := [...]string{"late.echo", "late.inline", "late.slow"}[(w+i)%3]
				var once sync.Map // leg → reported
				late := func(r transport.CallResult) {
					if _, dup := once.LoadOrStore(r.From, true); dup {
						t.Errorf("n%d reported to late twice", r.From)
					}
					if errors.Is(r.Err, transport.ErrTimeout) {
						timedOut.Add(1)
					} else if r.Err != nil {
						t.Errorf("late leg n%d: %v", r.From, r.Err)
					}
					reported.Add(1)
				}
				results := ts[0].MulticastLate(0, targets, svc, conformance.Msg{Tag: "x"}, 1, timeout, late)
				for _, r := range results {
					if _, dup := once.LoadOrStore(r.From, true); dup {
						t.Errorf("n%d returned and reported", r.From)
					}
				}
				returned.Add(int64(len(results)))
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * rounds * len(targets))
	deadline := time.Now().Add(2 * time.Second)
	for returned.Load()+reported.Load() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Every deadline has passed by now; give a timer that would report a
	// second time room to do so.
	time.Sleep(3 * timeout)
	if got := returned.Load() + reported.Load(); got != want {
		t.Errorf("%d legs accounted for (%d returned, %d late), want %d", got, returned.Load(), reported.Load(), want)
	}
	if n := ts[0].PendingLen(); n != 0 {
		t.Errorf("pending table holds %d entries after every deadline passed", n)
	}
	t.Logf("%d legs: %d returned, %d late (%d by deadline)", want, returned.Load(), reported.Load(), timedOut.Load())
}
