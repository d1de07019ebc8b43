package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesClock(t *testing.T) {
	v := New(1)
	var got time.Duration
	err := v.Run(func() {
		v.Sleep(250 * time.Millisecond)
		got = v.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 250*time.Millisecond {
		t.Fatalf("Now after sleep = %v, want 250ms", got)
	}
}

func TestVirtualSleepZeroDoesNotAdvance(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		v.Sleep(0)
		if v.Now() != 0 {
			t.Errorf("Now = %v, want 0", v.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualConcurrentSleepsOverlap(t *testing.T) {
	v := New(1)
	var end time.Duration
	err := v.Run(func() {
		done := NewPromise[struct{}](v)
		v.Go(func() {
			v.Sleep(100 * time.Millisecond)
			done.Resolve(struct{}{})
		})
		v.Sleep(60 * time.Millisecond)
		if _, err := done.Await(); err != nil {
			t.Errorf("Await: %v", err)
		}
		end = v.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 100*time.Millisecond {
		t.Fatalf("overlapping sleeps ended at %v, want 100ms", end)
	}
}

func TestVirtualManyTasksDeterministicOrder(t *testing.T) {
	run := func() []int {
		v := New(42)
		var order []int
		if err := v.Run(func() {
			var wg int
			done := NewMailbox[int](v)
			for i := 0; i < 50; i++ {
				i := i
				wg++
				v.Go(func() {
					v.Sleep(time.Duration(v.Rand().Intn(1000)) * time.Microsecond)
					done.Send(i)
				})
			}
			for ; wg > 0; wg-- {
				id, err := done.Recv()
				if err != nil {
					t.Errorf("Recv: %v", err)
					return
				}
				order = append(order, id)
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths = %d, %d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVirtualDeadlockDetected(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		p.Await() // never resolved
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestVirtualDeadline(t *testing.T) {
	v := New(1)
	v.SetDeadline(time.Second)
	err := v.Run(func() {
		v.Sleep(time.Hour)
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// The timer that ends a run on its deadline leaves its task's park with
// it: a task unwound later that wakes the parked one must find no event to
// take out of the heap.
func TestVirtualDeadlineThenUnwindWakes(t *testing.T) {
	v := New(1)
	v.SetDeadline(time.Second)
	err := v.Run(func() {
		p := NewPromise[int](v)
		v.Go(func() {
			defer p.Resolve(1)
			NewPromise[int](v).Await()
		})
		v.Go(func() { p.AwaitTimeout(time.Hour) })
		NewPromise[int](v).Await()
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestVirtualAfterFiresInOrder(t *testing.T) {
	v := New(1)
	var fired []int
	err := v.Run(func() {
		done := NewPromise[struct{}](v)
		v.After(30*time.Millisecond, func() { fired = append(fired, 3) })
		v.After(10*time.Millisecond, func() { fired = append(fired, 1) })
		v.After(20*time.Millisecond, func() {
			fired = append(fired, 2)
		})
		v.After(40*time.Millisecond, func() { done.Resolve(struct{}{}) })
		if _, err := done.Await(); err != nil {
			t.Errorf("Await: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

// A finished task's struct is reused by the next spawn, while wake tokens
// from its first life are still out: a promise and a mailbox it timed out
// on, and a wake event carrying one of its old tokens, as a Servers
// completion timer does after an early unpark. None of them may wake the
// reused task, parked on its own Sleep: gen keeps counting across reuse, so
// no old token matches a new park.
func TestVirtualStaleWakeAfterTaskReuse(t *testing.T) {
	v := New(1)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var slept, woke time.Duration
	err := v.Run(func() {
		p := NewPromise[int](v)
		mb := NewMailbox[int](v)
		var first *vtask
		var stale []waiter
		v.Go(func() {
			first = v.cur
			if _, err := p.AwaitTimeout(ms(1)); err != ErrTimeout {
				t.Errorf("AwaitTimeout = %v, want ErrTimeout", err)
			}
			stale = append(stale, waiter{first, first.gen})
			if _, err := mb.RecvTimeout(ms(1)); err != ErrTimeout {
				t.Errorf("RecvTimeout = %v, want ErrTimeout", err)
			}
			stale = append(stale, waiter{first, first.gen})
		})
		v.Sleep(ms(5)) // the first task times out twice and finishes
		v.Go(func() {
			if v.cur != first {
				t.Error("the second task did not reuse the first one's struct")
			}
			slept = v.Now()
			v.Sleep(ms(10))
			woke = v.Now()
		})
		v.Sleep(ms(1)) // the second task parks on its own wake at 15ms
		p.Resolve(1)
		mb.Send(1)
		for _, w := range stale {
			e := v.schedule(v.now + ms(1))
			e.wake, e.gen = w.t, w.gen
		}
		v.Sleep(ms(20))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if slept != ms(5) || woke != ms(15) {
		t.Fatalf("the reused task slept at %v and woke at %v, want 5ms and 15ms", slept, woke)
	}
}

// pendingTimers is the timers count of v.String().
func pendingTimers(t *testing.T, v *Virtual) int {
	s := v.String()
	i := strings.Index(s, "timers: ")
	if i < 0 {
		t.Fatalf("no timers count in %s", s)
	}
	var n int
	if _, err := fmt.Sscanf(s[i:], "timers: %d", &n); err != nil {
		t.Fatalf("timers count in %s: %v", s, err)
	}
	return n
}

// The timeout of an await or a receive that is satisfied first leaves the
// timer heap at once instead of waiting there, dead, for its instant: 2000
// four-second timeouts settled within a millisecond leave no timer behind.
func TestSettledTimersLeaveHeap(t *testing.T) {
	const n = 1000
	v := New(1)
	err := v.Run(func() {
		promises := make([]*Promise[int], n)
		boxes := make([]*Mailbox[int], n)
		results := NewMailbox[error](v)
		for i := range promises {
			promises[i] = NewPromise[int](v)
			boxes[i] = NewMailbox[int](v)
			v.Go(func() {
				_, err := promises[i].AwaitTimeout(4 * time.Second)
				results.Send(err)
			})
			v.Go(func() {
				_, err := boxes[i].RecvTimeout(4 * time.Second)
				results.Send(err)
			})
		}
		v.Sleep(500 * time.Microsecond)
		if got := pendingTimers(t, v); got != 2*n {
			t.Errorf("%d pending timers with every task parked, want %d", got, 2*n)
		}
		for i := range promises {
			promises[i].Resolve(i)
			boxes[i].Send(i)
		}
		for i := 0; i < 2*n; i++ {
			if err, _ := results.Recv(); err != nil {
				t.Fatalf("await or receive %d: %v", i, err)
			}
		}
		if now := v.Now(); now > time.Millisecond {
			t.Errorf("settled at %v, want within 1ms", now)
		}
		if got := pendingTimers(t, v); got != 0 {
			t.Errorf("%d pending timers after every timeout settled, want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPromiseResolveBeforeAwait(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		p.Resolve(7)
		got, err := p.Await()
		if err != nil || got != 7 {
			t.Errorf("Await = (%d, %v), want (7, nil)", got, err)
		}
		if !p.Done() {
			t.Error("Done = false after resolve")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPromiseReject(t *testing.T) {
	boom := errors.New("boom")
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		v.Go(func() {
			v.Sleep(time.Millisecond)
			p.Reject(boom)
		})
		if _, err := p.Await(); !errors.Is(err, boom) {
			t.Errorf("Await err = %v, want boom", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPromiseAwaitTimeout(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		start := v.Now()
		if _, err := p.AwaitTimeout(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if d := v.Now() - start; d != 20*time.Millisecond {
			t.Errorf("timeout took %v, want 20ms", d)
		}
		// A late resolve must still be awaitable.
		p.Resolve(3)
		if got, err := p.AwaitTimeout(time.Millisecond); err != nil || got != 3 {
			t.Errorf("late Await = (%d, %v), want (3, nil)", got, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A promise that is awaited with a timeout over and over (a parked
// store.Watch between polls) keeps no record of the waits that timed out,
// while a second task still parked on it is untouched and still woken.
func TestPromiseTimedOutAwaitsLeaveNoWaiter(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		got := NewMailbox[int](v)
		v.Go(func() {
			n, _ := p.Await()
			got.Send(n)
		})
		for i := 0; i < 100; i++ {
			if _, err := p.AwaitTimeout(time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("await %d: err = %v, want ErrTimeout", i, err)
			}
		}
		if n := len(p.impl.(*vPromise[int]).waiters); n != 1 {
			t.Errorf("%d waiter entries after 100 timed-out awaits, want only the parked task's", n)
		}
		p.Resolve(7)
		if n, err := got.RecvTimeout(time.Second); err != nil || n != 7 {
			t.Errorf("the parked task got (%d, %v), want (7, nil)", n, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// The mailbox twin of the test above: a receive that times out takes its
// waiter entry with it, while a receiver still parked keeps its own.
func TestMailboxTimedOutRecvsLeaveNoWaiter(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		got := NewMailbox[int](v)
		v.Go(func() {
			n, _ := m.Recv()
			got.Send(n)
		})
		for i := 0; i < 1000; i++ {
			if _, err := m.RecvTimeout(time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("recv %d: err = %v, want ErrTimeout", i, err)
				return
			}
		}
		if n := len(m.impl.(*vMailbox[int]).waiters); n > 1 {
			t.Errorf("%d waiter entries after 1000 timed-out receives, want only the parked task's", n)
		}
		m.Send(7)
		if n, err := got.RecvTimeout(time.Second); err != nil || n != 7 {
			t.Errorf("the parked task got (%d, %v), want (7, nil)", n, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPromiseDoubleResolveIgnored(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		p.Resolve(1)
		p.Resolve(2)
		p.Reject(errors.New("late"))
		got, err := p.Await()
		if err != nil || got != 1 {
			t.Errorf("Await = (%d, %v), want (1, nil)", got, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPromiseMultipleAwaiters(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		p := NewPromise[int](v)
		results := NewMailbox[int](v)
		for i := 0; i < 3; i++ {
			v.Go(func() {
				got, _ := p.Await()
				results.Send(got)
			})
		}
		v.Sleep(time.Millisecond)
		p.Resolve(9)
		for i := 0; i < 3; i++ {
			got, err := results.Recv()
			if err != nil || got != 9 {
				t.Errorf("awaiter %d got (%d, %v), want (9, nil)", i, got, err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxFIFO(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		for i := 0; i < 10; i++ {
			m.Send(i)
		}
		if m.Len() != 10 {
			t.Errorf("Len = %d, want 10", m.Len())
		}
		for i := 0; i < 10; i++ {
			got, err := m.Recv()
			if err != nil || got != i {
				t.Errorf("Recv = (%d, %v), want (%d, nil)", got, err, i)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxBlockingRecv(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[string](v)
		v.Go(func() {
			v.Sleep(5 * time.Millisecond)
			m.Send("hello")
		})
		got, err := m.Recv()
		if err != nil || got != "hello" {
			t.Errorf("Recv = (%q, %v)", got, err)
		}
		if v.Now() != 5*time.Millisecond {
			t.Errorf("Recv returned at %v, want 5ms", v.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxRecvTimeout(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		if _, err := m.RecvTimeout(time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		// An item arriving within the window is delivered.
		v.Go(func() {
			v.Sleep(time.Millisecond)
			m.Send(1)
		})
		got, err := m.RecvTimeout(10 * time.Millisecond)
		if err != nil || got != 1 {
			t.Errorf("RecvTimeout = (%d, %v), want (1, nil)", got, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxClose(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		m.Send(1)
		m.Close()
		m.Send(2) // dropped
		if got, err := m.Recv(); err != nil || got != 1 {
			t.Errorf("Recv = (%d, %v), want (1, nil)", got, err)
		}
		if _, err := m.Recv(); !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestMailboxSendReportsClosed pins Send's return value on both runtimes:
// true while the mailbox is open, false once it is closed, and a refused
// item is never received. simnet's MulticastLate relies on it to tell a
// straggler leg that its result must go to the late hook instead.
func TestMailboxSendReportsClosed(t *testing.T) {
	check := func(t *testing.T, rt Runtime) {
		m := NewMailbox[int](rt)
		if !m.Send(1) {
			t.Error("Send on an open mailbox reported false")
		}
		m.Close()
		if m.Send(2) {
			t.Error("Send on a closed mailbox reported true")
		}
		if got, ok := m.TryRecv(); !ok || got != 1 {
			t.Errorf("TryRecv = (%d, %v), want the item queued before Close", got, ok)
		}
		if got, ok := m.TryRecv(); ok {
			t.Errorf("TryRecv = %d after Close, want the refused item dropped", got)
		}
	}
	t.Run("virtual", func(t *testing.T) {
		v := New(1)
		if err := v.Run(func() { check(t, v) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	t.Run("real", func(t *testing.T) { check(t, NewReal(1)) })
}

func TestMailboxCloseWakesBlockedReceiver(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		done := NewPromise[error](v)
		v.Go(func() {
			_, err := m.Recv()
			done.Resolve(err)
		})
		v.Sleep(time.Millisecond)
		m.Close()
		got, _ := done.Await()
		if !errors.Is(got, ErrClosed) {
			t.Errorf("blocked Recv err = %v, want ErrClosed", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		if _, ok := m.TryRecv(); ok {
			t.Error("TryRecv on empty = ok")
		}
		m.Send(4)
		got, ok := m.TryRecv()
		if !ok || got != 4 {
			t.Errorf("TryRecv = (%d, %v), want (4, true)", got, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMailboxMultipleReceiversNoItemLoss(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		m := NewMailbox[int](v)
		out := NewMailbox[int](v)
		for i := 0; i < 4; i++ {
			v.Go(func() {
				for {
					got, err := m.Recv()
					if err != nil {
						return
					}
					out.Send(got)
				}
			})
		}
		for i := 0; i < 100; i++ {
			m.Send(i)
		}
		seen := make(map[int]bool, 100)
		for i := 0; i < 100; i++ {
			got, err := out.Recv()
			if err != nil {
				t.Fatalf("out.Recv: %v", err)
			}
			if seen[got] {
				t.Fatalf("item %d delivered twice", got)
			}
			seen[got] = true
		}
		m.Close()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualShuffleStillCompletes(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		v := New(seed)
		v.SetScheduleShuffle(true)
		sum := 0
		err := v.Run(func() {
			m := NewMailbox[int](v)
			for i := 1; i <= 20; i++ {
				i := i
				v.Go(func() { m.Send(i) })
			}
			for i := 0; i < 20; i++ {
				x, err := m.Recv()
				if err != nil {
					t.Errorf("Recv: %v", err)
					return
				}
				sum += x
			}
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if sum != 210 {
			t.Fatalf("seed %d: sum = %d, want 210", seed, sum)
		}
	}
}

func TestVirtualRunTwiceFails(t *testing.T) {
	v := New(1)
	if err := v.Run(func() {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := v.Run(func() {}); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestVirtualAbandonedTasksUnwound(t *testing.T) {
	v := New(1)
	err := v.Run(func() {
		for i := 0; i < 10; i++ {
			v.Go(func() {
				v.Sleep(time.Hour) // never completes before root exits
			})
		}
		v.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.head != nil {
		t.Fatalf("tasks leaked after Run: %v", v)
	}
}

// A deferred call that panics while Run unwinds its task fails Run, as a
// panic anywhere else in a task does.
func TestVirtualUnwindPanicReraised(t *testing.T) {
	defer func() {
		if r := recover(); r != "unwind boom" {
			t.Fatalf("recovered %v, want unwind boom", r)
		}
	}()
	v := New(1)
	v.Run(func() {
		v.Go(func() {
			defer func() { panic("unwind boom") }()
			v.Sleep(time.Hour)
		})
		v.Sleep(time.Millisecond)
	})
	t.Fatal("Run returned instead of re-raising the panic")
}

// Tasks that Run abandons are unwound oldest first, so the deferred calls
// they run on the way out (an abandoned op's history entry, say) come in
// the same order on every run of a seed.
func TestVirtualUnwindInSpawnOrder(t *testing.T) {
	var first []int
	for run := 0; run < 20; run++ {
		v := New(1)
		var order []int
		err := v.Run(func() {
			for i := 0; i < 6; i++ {
				v.Go(func() {
					defer func() { order = append(order, i) }()
					v.Sleep(time.Hour)
				})
			}
			v.Sleep(time.Millisecond)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if run == 0 {
			first = order
			if !sort.IntsAreSorted(first) || len(first) != 6 {
				t.Fatalf("unwound %v, want the 6 tasks in spawn order", first)
			}
			continue
		}
		if fmt.Sprint(order) != fmt.Sprint(first) {
			t.Fatalf("run %d unwound %v, run 0 unwound %v", run, order, first)
		}
	}
}

// Two cases where the next task lives on the worker that gives it up, and
// so continues inline, with no switch that Handoffs counts: a finished
// task's worker handed the task the next timer spawns, and a parked task
// that is itself the next to run. The run switches workers twice only: from
// the root to the first timer's task, and from the last one back.
func TestVirtualSelfHandoff(t *testing.T) {
	v := New(1)
	var fired []int
	var first uint64 // Handoffs as the first timer's task saw it
	err := v.Run(func() {
		done := NewPromise[struct{}](v)
		for i := 1; i <= 3; i++ {
			v.After(time.Duration(i)*time.Millisecond, func() {
				if i > 1 && len(v.idle) != 0 {
					t.Errorf("timer %d: %d idle workers, want the last timer's worker reused", i, len(v.idle))
				}
				if i == 1 {
					first = v.Handoffs()
				} else if n := v.Handoffs(); n != first {
					t.Errorf("timer %d: %d handoffs, %d at timer 1: an inline continuation was counted", i, n, first)
				}
				fired = append(fired, i)
			})
		}
		v.After(4*time.Millisecond, func() {
			before := v.Handoffs()
			v.Sleep(0)
			v.Sleep(time.Millisecond)
			if n := v.Handoffs(); n != before {
				t.Errorf("%d handoffs after waking on its own worker, %d before", n, before)
			}
			done.Resolve(struct{}{})
		})
		if _, err := done.Await(); err != nil {
			t.Errorf("Await: %v", err)
		}
		if v.Now() != 5*time.Millisecond {
			t.Errorf("root woke at %v, want 5ms", v.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(fired) != "[1 2 3]" {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
	if first != 1 || v.Handoffs() != 2 {
		t.Fatalf("handoffs = %d at timer 1 and %d after Run, want 1 and 2", first, v.Handoffs())
	}
}

// Run leaves no goroutine behind however it ends: the root returning with
// tasks still parked, a deadlock, a deadline, a task panic re-raised, or a
// task calling runtime.Goexit.
func TestVirtualRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	busy := func(v *Virtual) {
		for i := 0; i < 8; i++ {
			v.Go(func() { v.Sleep(time.Duration(i) * time.Millisecond) })
			v.Go(func() { v.Sleep(time.Hour) })
		}
	}
	ends := []struct {
		name string
		run  func() error
	}{
		{"normal", func() error {
			v := New(1)
			return v.Run(func() { busy(v); v.Sleep(5 * time.Millisecond) })
		}},
		{"deadlock", func() error {
			v := New(1)
			if err := v.Run(func() { busy(v); NewPromise[int](v).Await() }); !errors.Is(err, ErrDeadlock) {
				return fmt.Errorf("err = %v, want ErrDeadlock", err)
			}
			return nil
		}},
		{"deadline", func() error {
			v := New(1)
			v.SetDeadline(time.Second)
			if err := v.Run(func() { busy(v); v.Sleep(time.Hour) }); !errors.Is(err, ErrDeadlineExceeded) {
				return fmt.Errorf("err = %v, want ErrDeadlineExceeded", err)
			}
			return nil
		}},
		{"panic", func() (err error) {
			defer func() {
				if r := recover(); r != "boom" {
					err = fmt.Errorf("recovered %v, want boom", r)
				}
			}()
			v := New(1)
			v.Run(func() {
				busy(v)
				v.Go(func() { v.Sleep(3 * time.Millisecond); panic("boom") })
				v.Sleep(time.Hour)
			})
			return errors.New("Run returned instead of re-raising the panic")
		}},
		// t.FailNow inside a simulation ends its task's coroutine, and
		// iter.Pull passes the Goexit on to Run's goroutine: Run's caller
		// exits too, as testing requires of FailNow, but only once every
		// live task has been unwound, root first and the rest in spawn
		// order.
		{"goexit", func() error {
			var order []int
			returned := false
			exited := make(chan struct{})
			go func() {
				defer close(exited)
				v := New(1)
				v.Run(func() {
					defer func() { order = append(order, -1) }()
					for i := 0; i < 4; i++ {
						v.Go(func() {
							defer func() { order = append(order, i) }()
							v.Sleep(time.Hour)
						})
					}
					busy(v)
					v.Go(func() { v.Sleep(time.Millisecond); runtime.Goexit() })
					v.Sleep(5 * time.Millisecond)
				})
				returned = true
			}()
			<-exited
			if returned {
				return errors.New("Run returned after a task's Goexit")
			}
			if got := fmt.Sprint(order); got != "[-1 0 1 2 3]" {
				return fmt.Errorf("deferred calls ran as %s, want [-1 0 1 2 3]", got)
			}
			return nil
		}},
	}
	for _, end := range ends {
		if err := end.run(); err != nil {
			t.Fatalf("%s: %v", end.name, err)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Fatalf("%s: %d goroutines after Run, %d before", end.name, n, base)
		}
	}
}

func TestVirtualRandDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		v := New(seed)
		var out []int
		if err := v.Run(func() {
			for i := 0; i < 5; i++ {
				out = append(out, v.Rand().Intn(1000))
			}
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand sequences diverge: %v vs %v", a, b)
		}
	}
}

func TestRealRuntimeBasics(t *testing.T) {
	r := NewReal(1)
	start := r.Now()
	r.Sleep(5 * time.Millisecond)
	if r.Now()-start < 5*time.Millisecond {
		t.Fatal("real Sleep returned early")
	}

	p := NewPromise[int](r)
	r.Go(func() {
		time.Sleep(2 * time.Millisecond)
		p.Resolve(11)
	})
	got, err := p.Await()
	if err != nil || got != 11 {
		t.Fatalf("Await = (%d, %v), want (11, nil)", got, err)
	}
}

// NewRealAt clocks from a wall-clock epoch, as every musicd process does
// from the Unix epoch, but reads elapsed time off the monotonic clock.
func TestRealAtEpochIsMonotonic(t *testing.T) {
	for _, epoch := range []time.Time{time.Unix(0, 0), time.Now().Add(-90 * time.Minute).Round(0)} {
		r := NewRealAt(epoch, 1)
		if !strings.Contains(r.start.String(), " m=") {
			t.Fatalf("epoch %v: start %v carries no monotonic reading", epoch, r.start)
		}
		before := r.Now()
		if d := time.Since(epoch) - before; d < 0 || d > time.Second {
			t.Fatalf("epoch %v: Now = %v, time.Since(epoch) %v later", epoch, before, d)
		}
		r.Sleep(5 * time.Millisecond)
		if d := r.Now() - before; d < 5*time.Millisecond || d > time.Second {
			t.Fatalf("epoch %v: Now advanced %v over a 5ms sleep", epoch, d)
		}
	}
}

func TestRealPromiseTimeout(t *testing.T) {
	r := NewReal(1)
	p := NewPromise[int](r)
	if _, err := p.AwaitTimeout(2 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRealMailboxConcurrent(t *testing.T) {
	r := NewReal(1)
	m := NewMailbox[int](r)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				m.Send(i*10 + j)
			}
		}()
	}
	wg.Wait()
	var got []int
	for i := 0; i < 100; i++ {
		x, err := m.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		got = append(got, x)
	}
	sort.Ints(got)
	for i, x := range got {
		if x != i {
			t.Fatalf("missing item: got[%d] = %d", i, x)
		}
	}
}

func TestRealMailboxRecvTimeout(t *testing.T) {
	r := NewReal(1)
	m := NewMailbox[int](r)
	if _, err := m.RecvTimeout(2 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	m.Close()
	if _, err := m.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRealAfter(t *testing.T) {
	r := NewReal(1)
	fired := make(chan struct{}, 1)
	r.After(time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("After never fired")
	}
}
