package sim

import (
	"errors"
	"fmt"
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
	w          *worker // the goroutine the task runs on, from spawn to finish
	fn         func()
	call       func() // set on a call entry, which next runs inline (see next)
	state      taskState
	gen        uint64 // bumped on every park, never reset; stale wakeups are ignored
	poisoned   bool
	local      any    // task-local value (see Runtime.TaskLocal)
	timer      *event // the wake event of the current park, if it set one
	prev, next *vtask // neighbours on the live list, in spawn order
}

// worker is a pooled goroutine that runs tasks one after another. It holds
// one task from spawn to finish, then goes back on the idle list with the
// stack it has grown, ready to be handed the next spawned task.
type worker struct {
	resume chan struct{}
	t      *vtask // nil when idle; still nil on a resume means retire
}

// event is a timer entry. Events are pooled per Virtual: one that fires or
// leaves the heap is zeroed and reused by a later timer, so a nonzero seq
// marks an event that is in the heap under that number.
type event struct {
	at    time.Duration
	seq   uint64
	index int    // position in the timer heap
	fn    func() // spawn-style event: runs as a new task
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
// at a time on pooled worker goroutines. A task that blocks or finishes
// picks the next task itself and hands the baton straight to that task's
// goroutine; when no task is runnable the clock advances to the next timer.
// Create one with New and drive it with Run.
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
	idle       []*worker     // pooled workers with no task, most recent last
	over       bool          // next has returned nil; nothing runs any more
	done       chan struct{} // the baton comes back to Run's goroutine
	err        error         // why the simulation stopped early
	taskErr    any
	deadline   time.Duration
	shuffle    bool
	// The latest instant of every settled wake dropped from the heap, and
	// the latest one within the deadline: how far the clock would have run
	// through those dead timers on a stuck run (see stuck).
	settled, settledInDeadline time.Duration
}

var _ Runtime = (*Virtual)(nil)

// New returns a virtual runtime whose random source is seeded with seed.
// The same seed yields the same schedule.
func New(seed int64) *Virtual {
	return &Virtual{
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}),
	}
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
// re-raised on the caller's goroutine). Any tasks still alive when the root
// finishes are unwound and the pooled workers retired, so Run does not leak
// goroutines. The caller's goroutine only starts the root: from then on the
// baton passes from task to task until one finds the simulation over and
// hands it back here.
func (v *Virtual) Run(fn func()) error {
	if v.root != nil {
		return errors.New("sim: Run called twice on the same Virtual")
	}
	v.root = v.spawn(fn)
	v.ready = append(v.ready, v.root)
	v.next().w.resume <- struct{}{}
	<-v.done

	v.unwind()
	for _, w := range v.idle {
		w.resume <- struct{}{} // with no task bound, the worker exits
	}
	v.idle = nil
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
func (v *Virtual) After(d time.Duration, fn func()) Timer {
	e := v.schedule(v.now + d)
	e.fn = fn
	return Timer{v: v, e: e, seq: e.seq}
}

// stop removes e from the heap if it is still the pending timer numbered
// seq, and reports whether it was: an event that has fired, or has been
// reused since, carries another number.
func (v *Virtual) stop(e *event, seq uint64) bool {
	if e.seq != seq {
		return false
	}
	v.timers.remove(e)
	v.release(e)
	return true
}

// Rand implements Runtime.
func (v *Virtual) Rand() *rand.Rand { return v.rng }

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
		t.w = &worker{resume: make(chan struct{})}
		go v.work(t.w)
	}
	t.w.t = t
	return t
}

// work is a worker goroutine: run the bound task when resumed, go idle and
// pass the baton on, until resumed with no task bound.
func (v *Virtual) work(w *worker) {
	<-w.resume
	for w.t != nil {
		v.exec(w, w.t)
		w.t = nil
		v.idle = append(v.idle, w)
		v.handoff(w)
	}
}

// exec runs t on w to completion and unlinks it. A task that calls
// runtime.Goexit (t.FailNow from inside a simulation) takes its goroutine
// with it; the worker is then dropped and the baton passed on from here.
func (v *Virtual) exec(w *worker, t *vtask) {
	returned := false
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
		if !returned && r == nil {
			w.t = nil
			v.handoff(nil)
		}
	}()
	if !t.poisoned {
		t.fn()
	}
	returned = true
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
// A call entry in the ready queue is picked, and counted by the shuffle
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
				t.call()
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

// handoff passes the baton from w, whose task has just parked or finished,
// to the next task, and returns when w is resumed (at once for a nil w,
// whose goroutine is exiting). When the next task is bound to w itself — a
// parked task woken at once, or a finished worker handed the task spawned
// next — it continues inline: nobody would receive a send on w's own
// channel.
func (v *Virtual) handoff(w *worker) {
	switch t := v.next(); {
	case t == nil:
		v.done <- struct{}{}
	case t.w == w:
		return
	default:
		t.w.resume <- struct{}{}
	}
	if w != nil {
		<-w.resume
	}
}

// fire processes a due timer entry, just popped, with no task current.
func (v *Virtual) fire(e *event) {
	fn, t, gen, call := e.fn, e.wake, e.gen, e.call
	v.release(e)
	if fn != nil {
		v.Go(fn)
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
	t.state = stateReady
	v.ready = append(v.ready, t)
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

// unwind poisons the remaining tasks oldest first and runs each until it
// has finished, so their deferred calls run in spawn order.
func (v *Virtual) unwind() {
	for v.head != nil {
		t := v.head
		t.poisoned = true
		t.w.resume <- struct{}{}
		<-v.done
	}
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
