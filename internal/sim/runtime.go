// Package sim provides the execution substrate for every protocol in this
// repository: a Runtime abstraction over time, task spawning and blocking
// synchronization, with two interchangeable implementations.
//
// The virtual runtime (New) is a deterministic, cooperatively scheduled
// discrete-event simulator. Tasks run one at a time; when every task is
// blocked, the clock jumps to the next timer. A full "minute" of simulated
// WAN traffic executes in milliseconds of wall time, and a given seed always
// produces the same schedule, which makes distributed-systems tests
// reproducible.
//
// Each virtual task runs on a worker taken from a pool, and each worker is
// an iter.Pull coroutine: a finished task's worker goes idle with the stack
// it has grown and is handed the next spawned task. A task that parks or
// finishes picks the next task itself — the head of the FIFO ready queue, or
// a seeded random entry under SetScheduleShuffle; when the queue is empty,
// the earliest timers, advancing the clock — and simply carries on when the
// next task is its own. Otherwise it yields that task to Run's goroutine,
// the only one that resumes workers, and Run resumes the task's coroutine:
// a direct switch on one OS thread, with no idle thread woken. None of this
// can change a schedule: the selection code and its random draws are the
// same whichever worker runs them, timers fire with no task current (a task
// they spawn starts with no task-local), and which worker carries a task is
// invisible to the task. testdata/schedule.golden pins that. iter.Pull needs
// Go 1.23, so virtual.go builds only from Go 1.23 on (see go123.go).
//
// Besides tasks, the scheduler runs Steps: functions bound once that run
// inline with no task current, as a timer firing does. A step sits in the
// ready queue like a task — put there by Ready where Go would put a task,
// or by After at the instant After's task would go — and is picked, and
// counted by the shuffle draw, like one; but the picker runs its function
// and keeps selecting. Its waits, Servers.ServeStep and Promise.AwaitStep,
// reschedule the step with the same waiter entry, wake event, generation
// bump and settled-wake removal a parked task gets, so a task turned into
// steps keeps its schedule and its random draws (step_test.go checks this
// against tasks) and costs no worker switch. A step cannot block: a
// Sleep, Await or Recv inside one panics with ErrStepWait, and a step that
// panics fails Run as a task does. The simulated network runs every
// per-row RPC's delivery, reply and multicast leg as steps.
//
// A call timer unparks a waiting task and then runs a function. Servers, a
// pool of k FIFO servers modeling a simulated machine's CPU, is built from
// steps and call timers: it queues each Serve's job and parks the caller,
// and its servers are steps while they look for a job and call timers
// while they serve one. It places exactly the entries and timers that k
// worker tasks receiving jobs from a Mailbox did, so it runs no task and
// yet leaves every schedule and every random draw as they were;
// servers_test.go keeps those worker tasks as the reference it is checked
// against.
//
// The timer heap holds only live timers. It is a binary heap ordered on
// (instant, sequence number), each event keeping its own index, so an event
// can leave from anywhere. A park with a timeout (Sleep, AwaitTimeout,
// RecvTimeout) records its wake event on the task, and when something else
// wakes the task first — a Resolve, a Send, a Close — unpark takes that
// settled wake out of the heap at once. Firing it would unpark nobody, the
// task's generation having moved on, so no schedule depends on it; but a
// stuck run, with nothing left to run, advances the clock through every
// pending timer before it reports deadlock or deadline. The runtime keeps
// the latest instant of every dropped wake, and the latest within the
// deadline, and a stuck run advances to them, so it ends at the same Now
// with the same error as if the settled wakes had stayed. A call timer is
// no park's wake: it is never dropped. Fired and removed events are zeroed
// and reused.
//
// The real runtime (NewReal) maps the same operations onto goroutines and
// the wall clock, so protocol code written against Runtime also runs live
// over the TCP message plane (internal/nettrans: musicd, the chaosnet
// campaigns, the TCP benchmarks). Steps and Servers exist only in virtual
// time: their constructors take a *Virtual.
package sim

import (
	"errors"
	"math/rand"
	"time"
)

// Runtime is the clock/scheduler facade protocol code is written against.
//
// Implementations are provided by New (virtual time) and NewReal (wall
// clock); the unexported method keeps the set closed so the synchronization
// primitives in this package can special-case each implementation.
type Runtime interface {
	// Now returns the current time as an offset from the runtime's start.
	Now() time.Duration
	// Sleep blocks the calling task for d.
	Sleep(d time.Duration)
	// Go spawns fn as a new task.
	Go(fn func())
	// After schedules fn to run as a new task after d. Nothing cancels it:
	// fn checks, when it runs, whether it still has work to do.
	After(d time.Duration, fn func())
	// Rand returns the runtime's deterministic random source. It must only
	// be used from within tasks.
	Rand() *rand.Rand
	// TaskLocal returns the calling task's local value (nil when unset or
	// when called from outside a task). Tasks spawned with Go inherit the
	// spawner's value; timer callbacks (After) start with none. The local is
	// the propagation channel for cross-cutting per-task state such as the
	// observability span context (internal/obs).
	TaskLocal() any
	// SetTaskLocal replaces the calling task's local value; nil clears it.
	SetTaskLocal(v any)

	isRuntime()
}

// ErrTimeout is returned by AwaitTimeout and RecvTimeout when the deadline
// expires first.
var ErrTimeout = errors.New("sim: timeout")

// ErrDeadlock is returned by Run when no task can make progress and no
// timers remain while the root task has not finished.
var ErrDeadlock = errors.New("sim: deadlock: all tasks blocked with no pending timers")
