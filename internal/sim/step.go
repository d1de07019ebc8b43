package sim

import (
	"errors"
	"time"
)

// ErrStepWait is the panic value of a blocking operation — Sleep, Await,
// Recv, Serve — called from inside a step on the virtual runtime. A step
// runs with no task current, so it has nothing to park; its waits are
// Servers.ServeStep and Promise.AwaitStep, which reschedule the step instead.
var ErrStepWait = errors.New("sim: a step cannot block; only a task can wait")

// Step is a function bound once that the scheduler runs with no task
// current. On the virtual runtime it is a call entry: Ready puts it in the
// ready queue where Go would put a task, and After puts it there at now+d,
// where the task After spawns would go. The scheduler picks it, and counts
// it in the shuffle draw, exactly as it would that task, then runs its
// function inline and keeps selecting. Its waits, ServeStep and AwaitStep,
// reschedule it where the parked task would have been unparked. So a
// program whose tasks become steps keeps its schedule and its random draws,
// and runs no goroutine for them.
//
// On the wall clock a step runs on a goroutine of its own (go,
// time.AfterFunc), and its waits block and report that the step may go on
// at once. One code path then serves both runtimes: a step that waits hands
// the rest of its work to a second step, and calls that step's function
// itself when the wait reports true.
//
// A step has no task-local, as a timer callback has none: on the virtual
// runtime TaskLocal returns nil inside one, SetTaskLocal does nothing, and
// a task it spawns starts with none. A step is not reentrant: it must be
// in at most one place at a time — the ready queue, a timer, a wait —
// until its function has run.
type Step struct {
	v  *Virtual // nil on the wall clock
	t  *vtask   // on Virtual: the call entry the scheduler picks
	fn func()   // on Real
}

// NewStep binds fn to rt as a step.
func NewStep(rt Runtime, fn func()) *Step {
	switch r := rt.(type) {
	case *Virtual:
		return &Step{v: r, t: &vtask{call: fn}}
	case *Real:
		return &Step{fn: fn}
	default:
		panic("sim: unknown runtime implementation")
	}
}

// Ready schedules the step to run now: on the virtual runtime, at the tail
// of the ready queue, as Go schedules a task.
func (s *Step) Ready() {
	if s.v == nil {
		go s.fn()
		return
	}
	s.v.makeReady(s.t)
}

// After schedules the step to run after d, as After schedules a task.
func (s *Step) After(d time.Duration) {
	if s.v == nil {
		time.AfterFunc(d, s.fn)
		return
	}
	e := s.v.schedule(s.v.now + d)
	e.step = s.t
}

// block readies the step for a wait, as prepare readies a parking task, and
// returns its wake token.
func (s *Step) block() (*vtask, uint64) {
	s.t.gen++
	s.t.state = stateBlocked
	return s.t, s.t.gen
}
