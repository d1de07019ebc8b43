//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// ErrDeadlineExceeded is returned by Virtual.Run when virtual time reaches
// the deadline configured with SetDeadline before the root task finishes.
var ErrDeadlineExceeded = errors.New("sim: virtual-time deadline exceeded")

// poison is the panic value used to unwind abandoned tasks when Run exits.
type poison struct{}

// taskState tracks where a virtual task is in its lifecycle.
type taskState int

const (
	stateReady taskState = iota + 1
	stateRunning
	stateBlocked
	stateDone
)

// vtask is one cooperatively scheduled task of a Virtual runtime. Tasks are
// pooled per Virtual: a finished task is reset and handed to a later spawn.
// Its gen carries over, so a wake token it handed out in an earlier life — a
// waiter entry, a wake or call timer — never matches a park of the next.
type vtask struct {
	w          *worker // the coroutine the task runs on, from spawn to finish
	fn         func()
	call       func() // set on a step's call entry, which next runs inline
	state      taskState
	gen        uint64 // bumped on every park, never reset; stale wakeups are ignored
	poisoned   bool
	local      any    // task-local value (see Runtime.TaskLocal)
	timer      *event // the wake event of the current park, if it set one
	prev, next *vtask // neighbours on the live list, in spawn order
}

// worker is a pooled coroutine (iter.Pull) that runs tasks one after
// another. It holds one task from spawn to finish, then goes back on the
// idle list with the stack it has grown, ready to be handed the next
// spawned task. Only Run's goroutine resumes it; it yields back there the
// task to resume next, or nil once the simulation is over.
type worker struct {
	resume func() (*vtask, bool)
	yield  func(*vtask) bool // hands control back to Run's goroutine
	t      *vtask            // nil when idle; still nil on a resume means stop
}

// event is a timer entry. Events are pooled per Virtual: one that fires or
// leaves the heap is zeroed and reused by a later timer, so a nonzero seq
// marks an event that is in the heap under that number.
type event struct {
	at    time.Duration
	seq   uint64
	index int    // position in the timer heap
	fn    func() // spawn-style event: runs as a new task
	step  *vtask // step-style event: puts a step's entry in the ready queue
	wake  *vtask // wake-style event: unparks wake if gen still matches
	gen   uint64
	call  func() // run after the unpark, with no task current
}

// before orders events on (at, seq). Sequence numbers are unique, so the
// order is total and the heap's shape never decides which timer fires.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// timerHeap is a binary min-heap of events, each of which keeps its own
// index so that it can leave from anywhere in O(log n).
type timerHeap []*event

func (h *timerHeap) push(e *event) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// pop removes and returns the earliest event, or nil when h is empty.
func (h *timerHeap) pop() *event {
	if len(*h) == 0 {
		return nil
	}
	e := (*h)[0]
	h.remove(e)
	return e
}

// remove takes e, which must be in h, out of it.
func (h *timerHeap) remove(e *event) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i := e.index; i < n {
		if !h.down(i, last) {
			h.up(i, last)
		}
	}
}

// up moves e from the hole at i towards the root until its parent is
// earlier, and stores it there.
func (h timerHeap) up(i int, e *event) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down moves e from the hole at i towards the leaves until no child is
// earlier, stores it there, and reports whether it moved.
func (h timerHeap) down(i int, e *event) bool {
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
	return i > i0
}

// Virtual is the deterministic discrete-event runtime. All tasks execute one
// at a time on pooled worker coroutines, resumed by Run's goroutine alone.
// A task that blocks or finishes picks the next task itself: it carries on
// inline when that task is its own, and otherwise yields it to Run, which
// resumes that task's worker. When no task is runnable the clock advances
// to the next timer. Create one with New and drive it with Run.
type Virtual struct {
	now      time.Duration
	seq      uint64
	ready    []*vtask
	timers   timerHeap // live timers only: settled wakes leave at once
	free     []*event  // fired and removed events, zeroed, for reuse
	tasks    []*vtask  // finished tasks, reset but for gen, for reuse
	cur      *vtask
	rng      *rand.Rand
	root     *vtask
	rootDone bool
	// The live tasks, linked in spawn order: Run unwinds the tasks it
	// abandons oldest first, so their deferred calls run in a fixed order.
	head, tail *vtask
	idle       []*worker // pooled workers with no task, most recent last
	over       bool      // next has returned nil; nothing runs any more
	err        error     // why the simulation stopped early
	taskErr    any
	deadline   time.Duration
	shuffle    bool
	stepping   bool   // a step is running (see ErrStepWait)
	handoffs   uint64 // switches from one worker to another (Handoffs)
	// The latest instant of every settled wake dropped from the heap, and
	// the latest one within the deadline: how far the clock would have run
	// through those dead timers on a stuck run (see stuck).
	settled, settledInDeadline time.Duration
}

var _ Runtime = (*Virtual)(nil)

// New returns a virtual runtime whose random source is seeded with seed.
// The same seed yields the same schedule.
func New(seed int64) *Virtual {
	return &Virtual{rng: rand.New(rand.NewSource(seed))}
}

// SetDeadline makes Run fail with ErrDeadlineExceeded if virtual time would
// advance past d. Zero disables the deadline. Set it before Run.
func (v *Virtual) SetDeadline(d time.Duration) { v.deadline = d }

// SetScheduleShuffle toggles randomized selection among runnable tasks.
// The default (false) is FIFO order; enabling it explores alternative
// interleavings while remaining reproducible for a given seed.
func (v *Virtual) SetScheduleShuffle(on bool) { v.shuffle = on }

// Run executes fn as the root task and drives the simulation until the root
// returns, a deadline or deadlock is hit, or a task panics (the panic is
// re-raised on the caller's goroutine). A task that calls runtime.Goexit
// (t.FailNow inside a simulation) ends the caller's goroutine too, as
// testing requires of FailNow. However Run ends, the tasks still alive are
// unwound and the pooled workers stopped first, so Run leaks no goroutine.
//
// The caller's goroutine resumes every worker: the one whose task runs
// next, until a task finds the simulation over.
func (v *Virtual) Run(fn func()) error {
	if v.root != nil {
		return errors.New("sim: Run called twice on the same Virtual")
	}
	v.root = v.spawn(fn)
	v.ready = append(v.ready, v.root)
	// iter.Pull passes a task's Goexit on to this goroutine: clean up then.
	defer v.shutdown()
	for t := v.next(); t != nil; {
		t, _ = t.w.resume()
	}
	v.shutdown() // before the check: an unwound task may panic too
	if v.taskErr != nil {
		panic(v.taskErr)
	}
	return v.err
}

// Now implements Runtime.
func (v *Virtual) Now() time.Duration { return v.now }

// Go implements Runtime.
func (v *Virtual) Go(fn func()) {
	t := v.spawn(fn)
	if v.cur != nil {
		t.local = v.cur.local // children inherit the spawner's task-local
	}
	v.ready = append(v.ready, t)
}

// Sleep implements Runtime.
func (v *Virtual) Sleep(d time.Duration) {
	t, gen := v.prepare()
	v.wakeAt(v.now+d, t, gen)
	v.park(t)
}

// After implements Runtime.
func (v *Virtual) After(d time.Duration, fn func()) {
	e := v.schedule(v.now + d)
	e.fn = fn
}

// Rand implements Runtime.
func (v *Virtual) Rand() *rand.Rand { return v.rng }

// Handoffs returns how many times so far a task that parked or finished
// has been followed by a task on another worker: the switches the run has
// cost, each a yield to Run's goroutine and a resume from there, beyond
// the inline continuations that cost none. It is deterministic for a given
// seed and program. Read it from a task, or after Run.
func (v *Virtual) Handoffs() uint64 { return v.handoffs }

// TaskLocal implements Runtime. Tasks run one at a time, so reading the
// current task's slot needs no synchronization.
func (v *Virtual) TaskLocal() any {
	if v.cur == nil {
		return nil
	}
	return v.cur.local
}

// SetTaskLocal implements Runtime.
func (v *Virtual) SetTaskLocal(val any) {
	if v.cur != nil {
		v.cur.local = val
	}
}

func (v *Virtual) isRuntime() {}

// spawn creates a ready task at the tail of the live list, reusing the
// most recently finished one when there is one, and binds it to the most
// recently idled worker, starting a new worker only when none is idle, so
// neither pool outgrows the peak number of live tasks.
func (v *Virtual) spawn(fn func()) *vtask {
	var t *vtask
	if n := len(v.tasks); n > 0 {
		t = v.tasks[n-1]
		v.tasks[n-1] = nil
		v.tasks = v.tasks[:n-1]
	} else {
		t = new(vtask)
	}
	t.fn, t.state, t.prev = fn, stateReady, v.tail
	if v.tail != nil {
		v.tail.next = t
	} else {
		v.head = t
	}
	v.tail = t
	if n := len(v.idle); n > 0 {
		t.w = v.idle[n-1]
		v.idle = v.idle[:n-1]
	} else {
		t.w = v.newWorker()
	}
	t.w.t = t
	return t
}

// newWorker returns a worker whose coroutine, once resumed, runs the bound
// task, goes idle and moves on to the next task, until it is resumed with no
// task bound. Its coroutine then returns, so it needs no iter.Pull stop.
func (v *Virtual) newWorker() *worker {
	w := new(worker)
	w.resume, _ = iter.Pull(func(yield func(*vtask) bool) {
		w.yield = yield
		for w.t != nil {
			v.exec(w.t)
			w.t = nil
			v.idle = append(v.idle, w)
			v.handoff(w)
		}
	})
	return w
}

// exec runs t to completion and unlinks it. A task that calls
// runtime.Goexit still finishes here; its worker's coroutine then ends,
// and iter.Pull ends Run's goroutine with it.
func (v *Virtual) exec(t *vtask) {
	defer func() {
		r := recover()
		if r != nil {
			if _, ok := r.(poison); !ok && v.taskErr == nil {
				v.taskErr = r
			}
		}
		t.state = stateDone
		if t.prev != nil {
			t.prev.next = t.next
		} else {
			v.head = t.next
		}
		if t.next != nil {
			t.next.prev = t.prev
		} else {
			v.tail = t.prev
		}
		if t == v.root {
			v.rootDone = true
		}
		v.recycle(t)
	}()
	if !t.poisoned {
		t.fn()
	}
}

// recycle keeps t, finished and unlinked, for a later spawn. Every field
// but gen goes back to its zero value; gen must keep counting (see vtask).
func (v *Virtual) recycle(t *vtask) {
	t.w, t.fn, t.local, t.timer, t.prev, t.next = nil, nil, nil, nil, nil, nil
	t.poisoned = false
	v.tasks = append(v.tasks, t)
}

// next picks the task to run now: the head of the ready queue (a seeded
// random entry when shuffle is on), else whatever the earliest timers make
// runnable, with the clock advanced to them. It returns nil once the
// simulation is over — the root finished, a task panicked, the deadline
// passed or nothing can ever run again — and every time after. Timers fire
// with no task current, so a task they spawn starts with no task-local.
//
// A step's entry in the ready queue is picked, and counted by the shuffle
// draw, exactly as a task would be, but it is no task: next runs its call
// inline, with no task current, and keeps selecting.
func (v *Virtual) next() *vtask {
	v.cur = nil
	for !v.over && v.taskErr == nil && !v.rootDone {
		if len(v.ready) > 0 {
			i := 0
			if v.shuffle && len(v.ready) > 1 {
				i = v.rng.Intn(len(v.ready))
			}
			t := v.ready[i]
			v.ready = append(v.ready[:i], v.ready[i+1:]...)
			if t.call != nil {
				v.runStep(t)
				continue
			}
			t.state = stateRunning
			v.cur = t
			return t
		}
		e := v.timers.pop()
		if e == nil {
			if v.deadline > 0 && v.settled > v.deadline {
				v.stuck(ErrDeadlineExceeded)
			} else {
				v.stuck(ErrDeadlock)
			}
			break
		}
		if v.deadline > 0 && e.at > v.deadline {
			v.release(e)
			v.stuck(ErrDeadlineExceeded)
			break
		}
		if e.at > v.now {
			v.now = e.at
		}
		v.fire(e)
	}
	v.over = true
	return nil
}

// runStep runs the step t, just picked, with no task current. A step that
// panics ends the run as a panicking task does, and Run re-raises its
// panic; whoever happened to be selecting carries on.
func (v *Virtual) runStep(t *vtask) {
	defer func() {
		v.stepping = false
		if r := recover(); r != nil && v.taskErr == nil {
			v.taskErr = r
		}
	}()
	v.stepping = true
	t.state = stateRunning
	t.call()
	if t.state == stateRunning {
		t.state = stateDone
	}
}

// makeReady appends t, a task or a step, to the ready queue.
func (v *Virtual) makeReady(t *vtask) {
	t.state = stateReady
	v.ready = append(v.ready, t)
}

// stuck ends a run that cannot go on with err, the clock advanced as far
// as the settled wakes dropped from the heap would have taken it had they
// stayed to fire: to the latest of them, or to the latest within the
// deadline when one lies past it. Firing one never did anything else.
func (v *Virtual) stuck(err error) {
	at := v.settled
	if err == ErrDeadlineExceeded {
		at = v.settledInDeadline
	}
	if at > v.now {
		v.now = at
	}
	v.err = err
}

// handoff moves on from w, whose task has just parked or finished, to the
// next task, and returns when w is resumed. When the next task is bound to
// w itself — a parked task woken at once, or a finished worker handed the
// task spawned next — it continues inline, with no switch. Otherwise w
// yields that task, or nil once the simulation is over, to Run's goroutine,
// which resumes the task's worker.
func (v *Virtual) handoff(w *worker) {
	t := v.next()
	if t != nil {
		if t.w == w {
			return
		}
		v.handoffs++
	}
	w.yield(t)
}

// fire processes a due timer entry, just popped, with no task current.
func (v *Virtual) fire(e *event) {
	fn, step, t, gen, call := e.fn, e.step, e.wake, e.gen, e.call
	v.release(e)
	switch {
	case fn != nil:
		v.Go(fn)
		return
	case step != nil:
		v.makeReady(step)
		return
	}
	v.unpark(t, gen)
	if call != nil {
		call()
	}
}

// prepare readies the current task for parking and returns its wake token.
// Waiter registrations (mailbox lists, timers) must capture the returned
// generation so stale wakeups are discarded.
func (v *Virtual) prepare() (*vtask, uint64) {
	t := v.cur
	if t == nil {
		if v.stepping {
			panic(ErrStepWait)
		}
		panic("sim: blocking operation outside a sim task")
	}
	t.gen++
	return t, t.gen
}

// park blocks the prepared task until something unparks it.
func (v *Virtual) park(t *vtask) {
	t.state = stateBlocked
	v.handoff(t.w)
	if t.poisoned {
		panic(poison{})
	}
	t.state = stateRunning
}

// unpark makes t runnable again if it is still parked on generation gen.
// A wake event the park set is settled by this and leaves the heap: when
// it fired it would find the generation moved on and unpark nobody.
func (v *Virtual) unpark(t *vtask, gen uint64) {
	if t == nil || t.state != stateBlocked || t.gen != gen {
		return
	}
	v.makeReady(t)
	if t.timer != nil {
		v.dropWake(t.timer)
	}
}

// dropWake takes a settled wake out of the heap, noting how far it would
// have moved the clock of a stuck run (see stuck).
func (v *Virtual) dropWake(e *event) {
	if e.at > v.settled {
		v.settled = e.at
	}
	if e.at <= v.deadline && e.at > v.settledInDeadline {
		v.settledInDeadline = e.at
	}
	v.timers.remove(e)
	v.release(e)
}

// wakeAt schedules an unpark of (t, gen) at time at, as the wake event of
// the park t is about to make.
func (v *Virtual) wakeAt(at time.Duration, t *vtask, gen uint64) {
	e := v.schedule(at)
	e.wake, e.gen = t, gen
	t.timer = e
}

// schedule pushes a timer event due at at, numbered next, and returns it
// for the caller to fill in; the number alone orders it among equals.
func (v *Virtual) schedule(at time.Duration) *event {
	var e *event
	if n := len(v.free); n > 0 {
		e = v.free[n-1]
		v.free = v.free[:n-1]
	} else {
		e = new(event)
	}
	e.at, e.seq = at, v.nextSeq()
	v.timers.push(e)
	return e
}

// release zeroes e, which has left the heap, so that it pins no closure
// and no task, and keeps it for reuse. A wake event leaves its task's park.
func (v *Virtual) release(e *event) {
	if t := e.wake; t != nil && t.timer == e {
		t.timer = nil
	}
	*e = event{}
	v.free = append(v.free, e)
}

func (v *Virtual) nextSeq() uint64 {
	v.seq++
	return v.seq
}

// shutdown ends the simulation, if a Goexit cut it short, and cleans up
// after it, once; a second call finds nothing left to do: it poisons the remaining tasks oldest first and runs each until
// it has finished, so their deferred calls run in spawn order, and then
// ends the idle workers' coroutines.
func (v *Virtual) shutdown() {
	v.over, v.cur = true, nil
	for v.head != nil {
		t := v.head
		t.poisoned = true
		t.w.resume()
	}
	for _, w := range v.idle {
		w.resume() // with no task bound, the coroutine returns
	}
	v.idle = nil
}

// String describes the runtime state, useful in test failure messages.
func (v *Virtual) String() string {
	live := 0
	for t := v.head; t != nil; t = t.next {
		live++
	}
	return fmt.Sprintf("sim.Virtual{now: %v, ready: %d, timers: %d, live: %d}",
		v.now, len(v.ready), len(v.timers), live)
}
