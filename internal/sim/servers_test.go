package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// executor is the CPU model Servers replaced, kept verbatim as the
// reference: a fixed pool of worker tasks consuming admission requests from
// a shared Mailbox in FIFO order, each sleeping for the job's cost and then
// resolving the job's Promise.
type executor struct {
	rt Runtime
	q  *Mailbox[execJob]
}

type execJob struct {
	cost time.Duration
	done *Promise[struct{}]
}

func newExecutor(rt Runtime, workers int) *executor {
	e := &executor{rt: rt, q: NewMailbox[execJob](rt)}
	for i := 0; i < workers; i++ {
		rt.Go(e.worker)
	}
	return e
}

func (e *executor) worker() {
	for {
		j, err := e.q.Recv()
		if err != nil {
			return
		}
		if j.cost > 0 {
			e.rt.Sleep(j.cost)
		}
		j.done.Resolve(struct{}{})
	}
}

// admit blocks until a worker has burned cost of CPU time for this request.
func (e *executor) admit(cost time.Duration) {
	if cost <= 0 {
		return
	}
	done := NewPromise[struct{}](e.rt)
	e.q.Send(execJob{cost: cost, done: done})
	_, _ = done.Await()
}

// newPoolFunc builds one k-server pool on v and returns its Serve.
type newPoolFunc func(v *Virtual, k int) func(time.Duration)

func serversPool(v *Virtual, k int) func(time.Duration)  { return NewServers(v, k).Serve }
func executorPool(v *Virtual, k int) func(time.Duration) { return newExecutor(v, k).admit }

// serversProgram drives three pools of 1, 2 and 3 servers with every shape
// of load a simulated node's CPU sees: tasks submitting same-cost jobs at
// the same instant to different pools, more concurrent clients than any
// pool has servers, zero-cost jobs, sleeps between jobs, timer-spawned
// tasks that serve, and a pool built while the others are busy. Costs and
// pools are drawn from the runtime's random source in the order the tasks
// run, so any change to who runs when shows up in the log; the last line is
// the source's next value.
func serversProgram(v *Virtual, tr *schedTrace, newPool newPoolFunc) {
	rng := v.Rand()
	ms := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Millisecond }
	pools := []func(time.Duration){newPool(v, 1), newPool(v, 2)}
	done := NewMailbox[string](v)
	tasks := 0
	serve := func(name string, p int, cost time.Duration) {
		tr.log(name, "serve pool%d %v", p, cost)
		start := v.Now()
		pools[p](cost)
		tr.log(name, "served pool%d waited %v", p, v.Now()-start-cost)
	}

	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("tie%d", i)
		tasks++
		v.Go(func() {
			for j := 0; j < 3; j++ {
				serve(name, i, time.Millisecond)
			}
			done.Send(name)
		})
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("client%d", i)
		tasks++
		v.Go(func() {
			for j := 0; j < 5; j++ {
				serve(name, rng.Intn(len(pools)), ms(3))
				if rng.Intn(3) == 0 {
					v.Sleep(ms(2))
				}
			}
			done.Send(name)
		})
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("timer%d", i)
		tasks++
		v.After(ms(6), func() {
			serve(name, rng.Intn(len(pools)), ms(3))
			done.Send(name)
		})
	}
	v.Sleep(time.Millisecond)
	pools = append(pools, newPool(v, 3))
	tr.log("root", "pool2 built")
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("late%d", i)
		tasks++
		v.Go(func() {
			serve(name, 2, 2*time.Millisecond)
			serve(name, i%2, 2*time.Millisecond)
			done.Send(name)
		})
	}
	for ; tasks > 0; tasks-- {
		name, _ := done.Recv()
		tr.log("root", "done %s", name)
	}
	tr.log("root", "next rng %d", rng.Int63())
}

func serversLog(seed int64, shuffle bool, newPool newPoolFunc) (string, error) {
	v := New(seed)
	v.SetScheduleShuffle(shuffle)
	tr := &schedTrace{v: v}
	err := v.Run(func() { serversProgram(v, tr, newPool) })
	return strings.Join(tr.lines, "\n"), err
}

// TestServersMatchWorkerTasks runs one seeded program over Servers and over
// the worker-task executor it replaced and requires the same schedule: the
// same events by the same tasks at the same virtual instants, and the same
// random source state at the end. Servers runs no task, so this is what
// keeps every seeded campaign and wan_* figure unchanged by it. Per-server
// free-time bookkeeping, one Sleep per job, fails here: same-instant jobs
// on different pools complete in another order.
func TestServersMatchWorkerTasks(t *testing.T) {
	queued := false
	for _, shuffle := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			want, werr := serversLog(seed, shuffle, executorPool)
			got, gerr := serversLog(seed, shuffle, serversPool)
			if werr != nil || gerr != nil {
				t.Fatalf("shuffle=%v seed %d: Run = %v over Servers, %v over workers", shuffle, seed, gerr, werr)
			}
			if got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("shuffle=%v seed %d: line %d over Servers\n %s\nover workers\n %s", shuffle, seed, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("shuffle=%v seed %d: %d lines over Servers, %d over workers", shuffle, seed, len(gl), len(wl))
			}
			queued = queued || strings.Contains(got, "waited 1ms") || strings.Contains(got, "waited 2ms")
		}
	}
	if !queued {
		t.Fatal("no job ever queued behind another: the program does not saturate a pool")
	}
}

// A job's completion timer is no settled wake: it runs the server on to the
// next job. Unparking the job's caller early must leave it in the heap, and
// when it fires it must not wake the caller, parked elsewhere by then.
func TestServersCompletionSurvivesEarlyUnpark(t *testing.T) {
	v := New(1)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var early, slept, second time.Duration
	err := v.Run(func() {
		s := NewServers(v, 1)
		parked := NewMailbox[*vtask](v)
		done := NewMailbox[struct{}](v)
		v.Go(func() {
			parked.Send(v.cur)
			s.Serve(ms(10))
			early = v.Now()
			v.Sleep(ms(20))
			slept = v.Now()
			done.Send(struct{}{})
		})
		v.Go(func() {
			s.Serve(ms(5))
			second = v.Now()
			done.Send(struct{}{})
		})
		first, _ := parked.Recv()
		v.Sleep(ms(1))
		v.unpark(first, first.gen)
		if got := pendingTimers(t, v); got != 1 {
			t.Errorf("%d pending timers after the early unpark, want the completion timer", got)
		}
		done.Recv()
		done.Recv()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if early != ms(1) || slept != ms(21) || second != ms(15) {
		t.Fatalf("unparked at %v, slept until %v, second job done at %v; want 1ms, 21ms, 15ms", early, slept, second)
	}
}
