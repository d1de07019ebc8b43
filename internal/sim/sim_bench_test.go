package sim

import (
	"testing"
	"time"
)

// BenchmarkVirtualTaskSwitch measures the cost of one park/unpark cycle —
// the unit everything in the simulator is built from. Two tasks sleep in
// turn, half a period apart, so every wake resumes the other task's worker:
// handoffs/op reads 2, one switch there and one back.
func BenchmarkVirtualTaskSwitch(b *testing.B) {
	v := New(1)
	err := v.Run(func() {
		done := false
		v.Go(func() {
			v.Sleep(time.Microsecond / 2)
			for !done {
				v.Sleep(time.Microsecond)
			}
		})
		b.ResetTimer()
		start := v.Handoffs()
		for i := 0; i < b.N; i++ {
			v.Sleep(time.Microsecond)
		}
		b.StopTimer()
		b.ReportMetric(float64(v.Handoffs()-start)/float64(b.N), "handoffs/op")
		done = true
	})
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkVirtualPingPong measures two tasks exchanging messages through
// mailboxes, the shape of every RPC in the network layer.
func BenchmarkVirtualPingPong(b *testing.B) {
	v := New(1)
	err := v.Run(func() {
		ping := NewMailbox[int](v)
		pong := NewMailbox[int](v)
		v.Go(func() {
			for {
				x, err := ping.Recv()
				if err != nil {
					return
				}
				pong.Send(x)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			if _, err := pong.Recv(); err != nil {
				b.Fatalf("Recv: %v", err)
			}
		}
		b.StopTimer()
		ping.Close()
	})
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkVirtualTimerFanout measures many timers firing in order.
func BenchmarkVirtualTimerFanout(b *testing.B) {
	v := New(1)
	err := v.Run(func() {
		b.ResetTimer()
		fired := 0
		for i := 0; i < b.N; i++ {
			v.After(time.Duration(i)*time.Microsecond, func() { fired++ })
		}
		v.Sleep(time.Duration(b.N+1) * time.Microsecond)
		if fired != b.N {
			b.Fatalf("fired = %d, want %d", fired, b.N)
		}
	})
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkVirtualTimeoutChurn measures the RPC pattern of the network
// layer: each call awaits its reply with a long timeout that the reply
// settles early, while the server's own timers fire in between.
func BenchmarkVirtualTimeoutChurn(b *testing.B) {
	v := New(1)
	err := v.Run(func() {
		reqs := NewMailbox[*Promise[int]](v)
		v.Go(func() {
			for {
				p, err := reqs.Recv()
				if err != nil {
					return
				}
				v.Sleep(time.Microsecond)
				p.Resolve(1)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := NewPromise[int](v)
			reqs.Send(p)
			if _, err := p.AwaitTimeout(4 * time.Second); err != nil {
				b.Fatalf("AwaitTimeout: %v", err)
			}
		}
		b.StopTimer()
		reqs.Close()
	})
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
}
