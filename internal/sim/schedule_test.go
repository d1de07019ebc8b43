package sim

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedule.golden from the current runtime")

// schedTrace is the event log of one seeded program: one line per event,
// stamped with the virtual time and the program's own name for the task.
type schedTrace struct {
	v     *Virtual
	lines []string
}

func (tr *schedTrace) log(task, format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf("%v %s %s", tr.v.Now(), task, fmt.Sprintf(format, args...)))
}

// scheduleProgram mixes every scheduling primitive the runtime offers:
// spawned tasks, sleeps (zero-length ones included), timers and their
// cancellation, mailbox receives that time out, succeed and see a close,
// promise awaits that time out and then settle, and task-locals inherited
// by Go but not by a timer. Every delay is drawn from the runtime's random
// source in the order the tasks run, so any change to who runs when shows
// up in the log.
func scheduleProgram(v *Virtual, tr *schedTrace) {
	rng := v.Rand()
	jitter := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Millisecond }
	v.SetTaskLocal("root")
	inbox := NewMailbox[int](v)
	reply := NewPromise[string](v)
	quit := NewMailbox[struct{}](v)

	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("prod%d", i)
		v.Go(func() {
			tr.log(name, "start local=%v", v.TaskLocal())
			v.SetTaskLocal(name)
			for j := 0; j < 3; j++ {
				v.Sleep(jitter(4))
				inbox.Send(10*i + j)
				tr.log(name, "send %d", 10*i+j)
			}
		})
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("cons%d", i)
		v.Go(func() {
			for {
				x, err := inbox.RecvTimeout(time.Millisecond + jitter(3))
				tr.log(name, "recv %d err=%v", x, err)
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		})
	}
	timers := make([]Timer, 5)
	for i := range timers {
		name := fmt.Sprintf("timer%d", i)
		timers[i] = v.After(jitter(12), func() {
			tr.log(name, "fire local=%v", v.TaskLocal())
			v.SetTaskLocal(name)
			v.Go(func() { tr.log(name+".child", "start local=%v", v.TaskLocal()) })
		})
	}
	tr.log("root", "stop timer1=%v again=%v", timers[1].Stop(), timers[1].Stop())
	v.Go(func() {
		for {
			s, err := reply.AwaitTimeout(2 * time.Millisecond)
			tr.log("awaiter", "await %q err=%v", s, err)
			if err == nil {
				return
			}
		}
	})
	v.Go(func() {
		v.Sleep(7 * time.Millisecond)
		reply.Resolve("done")
		tr.log("resolver", "resolved")
	})
	v.Go(func() {
		_, err := quit.Recv()
		tr.log("quitter", "recv err=%v", err)
	})
	v.Sleep(20 * time.Millisecond)
	tr.log("root", "close local=%v", v.TaskLocal())
	inbox.Close()
	quit.Close()
	v.Sleep(5 * time.Millisecond)
	tr.log("root", "done")
}

// deadlockProgram parks every task on something nobody will ever provide.
func deadlockProgram(v *Virtual, tr *schedTrace) {
	never := NewMailbox[int](v)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("waiter%d", i)
		v.Go(func() {
			v.Sleep(time.Duration(v.Rand().Intn(5)) * time.Millisecond)
			tr.log(name, "recv")
			never.Recv()
		})
	}
	v.Sleep(10 * time.Millisecond)
	tr.log("root", "await")
	NewPromise[int](v).Await()
}

// settledProgram leaves nothing but settled timeouts behind: every await
// and every receive is satisfied within a few milliseconds, long before its
// timeout, and then every task parks for good. A stuck run must still end
// at the instant, and with the error, that the timeouts put it at: the
// latest one ≤ the deadline and ErrDeadlineExceeded when a later one lies
// past it, else the latest one and ErrDeadlock.
func settledProgram(v *Virtual, tr *schedTrace) {
	rng := v.Rand()
	never := NewMailbox[int](v)
	inbox := NewMailbox[int](v)
	timeouts := []time.Duration{4 * time.Second, time.Duration(20+rng.Intn(30)) * time.Millisecond}
	for i, d := range timeouts {
		name := fmt.Sprintf("awaiter%d", i)
		p := NewPromise[int](v)
		v.Go(func() {
			x, err := p.AwaitTimeout(d)
			tr.log(name, "await %d err=%v", x, err)
			never.Recv()
		})
		v.Go(func() {
			v.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
			p.Resolve(i)
			tr.log(name+".resolver", "resolved")
			never.Recv()
		})
	}
	v.Go(func() {
		x, err := inbox.RecvTimeout(time.Duration(30+rng.Intn(30)) * time.Millisecond)
		tr.log("receiver", "recv %d err=%v", x, err)
		never.Recv()
	})
	v.Sleep(3 * time.Millisecond)
	inbox.Send(7)
	tr.log("root", "sent")
	never.Recv()
}

// scheduleRuns is every run the golden file records, in order.
var scheduleRuns = []struct {
	name     string
	seed     int64
	shuffle  bool
	deadline time.Duration
	program  func(*Virtual, *schedTrace)
}{
	{"fifo", 1, false, 0, scheduleProgram},
	{"fifo", 2, false, 0, scheduleProgram},
	{"shuffle", 1, true, 0, scheduleProgram},
	{"shuffle", 2, true, 0, scheduleProgram},
	{"shuffle", 3, true, 0, scheduleProgram},
	{"deadline", 1, false, 12 * time.Millisecond, scheduleProgram},
	{"deadlock", 1, true, 0, deadlockProgram},
	{"deadline-settled", 1, false, 60 * time.Millisecond, settledProgram},
	{"deadlock-settled", 1, true, 0, settledProgram},
}

func scheduleLog() string {
	var out strings.Builder
	for _, r := range scheduleRuns {
		v := New(r.seed)
		v.SetScheduleShuffle(r.shuffle)
		v.SetDeadline(r.deadline)
		tr := &schedTrace{v: v}
		err := v.Run(func() { r.program(v, tr) })
		fmt.Fprintf(&out, "== %s seed=%d\n", r.name, r.seed)
		for _, l := range tr.lines {
			fmt.Fprintln(&out, l)
		}
		fmt.Fprintf(&out, "end %v err=%v\n", v.Now(), err)
	}
	return out.String()
}

// TestVirtualScheduleGolden pins the virtual runtime's schedule: which task
// runs when, on which virtual instant, drawing which random numbers. Every
// seeded campaign and every wan_* benchmark figure rests on that schedule,
// so a rework of the runtime's internals must leave this file unchanged.
// Regenerate it (go test ./internal/sim -run ScheduleGolden -update) only
// for a change that means to alter the schedule.
func TestVirtualScheduleGolden(t *testing.T) {
	path := filepath.Join("testdata", "schedule.golden")
	got := scheduleLog()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("schedule diverges from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("schedule has %d lines, %s has %d", len(gl), path, len(wl))
}
