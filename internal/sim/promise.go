package sim

import (
	"sync"
	"time"
)

// Promise is a one-shot value passed between tasks: one side resolves or
// rejects it, the other awaits it. It backs every RPC reply in the network
// layer. Await may be called by multiple tasks; all observe the same result.
type Promise[T any] struct {
	impl promiseImpl[T]
}

type promiseImpl[T any] interface {
	resolve(v T, err error)
	await(timeout int64) (T, error) // timeout in nanoseconds; <0 means none
	done() bool
	reset()
}

// NewPromise returns an unresolved promise bound to rt.
func NewPromise[T any](rt Runtime) *Promise[T] {
	switch r := rt.(type) {
	case *Virtual:
		return &Promise[T]{impl: &vPromise[T]{v: r}}
	case *Real:
		return &Promise[T]{impl: &rPromise[T]{ch: make(chan struct{})}}
	default:
		panic("sim: unknown runtime implementation")
	}
}

// Resolve fulfills the promise with v. Later resolutions are ignored.
func (p *Promise[T]) Resolve(v T) { p.impl.resolve(v, nil) }

// Reject fails the promise with err. Later resolutions are ignored.
func (p *Promise[T]) Reject(err error) {
	var zero T
	p.impl.resolve(zero, err)
}

// Await blocks until the promise settles and returns its result.
func (p *Promise[T]) Await() (T, error) { return p.impl.await(-1) }

// AwaitTimeout is Await with a deadline; it returns ErrTimeout if the
// promise has not settled within d.
func (p *Promise[T]) AwaitTimeout(d time.Duration) (T, error) { return p.impl.await(int64(d)) }

// AwaitStep is AwaitTimeout for a step: st must be the step that runs the
// rest of the caller's work, and reads the outcome with StepResult. It
// reports true when st may go on at once — the promise has settled or the
// timeout is already up — and the caller then runs st's function itself.
// It reports false when st waits; the scheduler then runs st once the
// promise settles or the timeout passes, at the instant and ready-queue
// position a task parked in AwaitTimeout would have been resumed at. A
// negative d means no timeout. A step exists only on the virtual runtime,
// so p must be a virtual promise.
func (p *Promise[T]) AwaitStep(st *Step, d time.Duration) bool {
	return p.impl.(*vPromise[T]).awaitStep(st, int64(d))
}

// StepResult returns the outcome of st's AwaitStep: the promise's result,
// or ErrTimeout when it had not settled in time.
func (p *Promise[T]) StepResult(st *Step) (T, error) {
	return p.impl.(*vPromise[T]).stepResult(st)
}

// Done reports whether the promise has settled.
func (p *Promise[T]) Done() bool { return p.impl.done() }

// Reset makes the promise unresolved again, for an owner that reuses it. No
// task may be awaiting it, or still hold it to resolve, across the Reset.
func (p *Promise[T]) Reset() { p.impl.reset() }

// vPromise is the virtual-runtime promise. Single-threaded scheduling means
// no locking is required.
type vPromise[T any] struct {
	v       *Virtual
	settled bool
	val     T
	err     error
	waiters []waiter
}

type waiter struct {
	t   *vtask
	gen uint64
}

func (p *vPromise[T]) resolve(v T, err error) {
	if p.settled {
		return
	}
	p.settled, p.val, p.err = true, v, err
	for _, w := range p.waiters {
		p.v.unpark(w.t, w.gen)
	}
	clear(p.waiters)
	p.waiters = p.waiters[:0]
}

func (p *vPromise[T]) reset() {
	var zero T
	p.settled, p.val, p.err = false, zero, nil
}

func (p *vPromise[T]) await(timeout int64) (T, error) {
	var deadline time.Duration
	if timeout >= 0 {
		deadline = p.v.now + time.Duration(timeout)
	}
	for !p.settled {
		if timeout >= 0 && p.v.now >= deadline {
			var zero T
			return zero, ErrTimeout
		}
		t, gen := p.v.prepare()
		p.waiters = append(p.waiters, waiter{t, gen})
		if timeout >= 0 {
			p.v.wakeAt(deadline, t, gen)
		}
		p.v.park(t)
		if !p.settled {
			// Timed out: take the dead entry back, or a promise awaited with
			// a timeout again and again (a parked store.Watch) grows a list
			// of them for as long as it stays unsettled.
			p.waiters = dropWaiter(p.waiters, t, gen)
		}
	}
	return p.val, p.err
}

// awaitStep registers st as await registers a parking task: a waiter entry,
// and a wake event at the deadline.
func (p *vPromise[T]) awaitStep(st *Step, timeout int64) bool {
	if p.settled || timeout == 0 {
		return true
	}
	t, gen := st.block()
	p.waiters = append(p.waiters, waiter{t, gen})
	if timeout > 0 {
		p.v.wakeAt(p.v.now+time.Duration(timeout), t, gen)
	}
	return false
}

// stepResult is what await returns to a task resumed from its park. Woken
// unsettled, the step was woken by its deadline, and it takes its dead
// entry back as await does.
func (p *vPromise[T]) stepResult(st *Step) (T, error) {
	if !p.settled {
		p.waiters = dropWaiter(p.waiters, st.t, st.t.gen)
		var zero T
		return zero, ErrTimeout
	}
	return p.val, p.err
}

// dropWaiter removes the entry (t, gen) from ws if it is there, keeping the
// order of the others.
func dropWaiter(ws []waiter, t *vtask, gen uint64) []waiter {
	for i, w := range ws {
		if w.t == t && w.gen == gen {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}

func (p *vPromise[T]) done() bool { return p.settled }

// rPromise is the wall-clock promise, built on a closed channel.
type rPromise[T any] struct {
	mu      sync.Mutex
	settled bool
	val     T
	err     error
	ch      chan struct{}
}

func (p *rPromise[T]) resolve(v T, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.settled {
		return
	}
	p.settled, p.val, p.err = true, v, err
	close(p.ch)
}

func (p *rPromise[T]) await(timeout int64) (T, error) {
	if timeout < 0 {
		<-p.ch
	} else {
		select {
		case <-p.ch:
		case <-newTimeoutChan(time.Duration(timeout)):
			p.mu.Lock()
			settled := p.settled
			p.mu.Unlock()
			if !settled {
				var zero T
				return zero, ErrTimeout
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.val, p.err
}

func (p *rPromise[T]) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var zero T
	p.settled, p.val, p.err = false, zero, nil
	p.ch = make(chan struct{})
}

func (p *rPromise[T]) done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.settled
}
