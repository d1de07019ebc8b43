package sim

import (
	"sync"
	"time"
)

// Mailbox is an unbounded FIFO queue between tasks. Sends never block;
// receives block until an item arrives, the mailbox closes, or an optional
// deadline expires. It is the building block for worker queues and node
// inboxes.
type Mailbox[T any] struct {
	impl mailboxImpl[T]
}

type mailboxImpl[T any] interface {
	send(v T) bool
	recv(timeout int64) (T, error)
	tryRecv() (T, bool)
	close()
	length() int
	reset()
}

// ErrClosed is returned by Mailbox.Recv after Close once the queue drains.
var ErrClosed = errClosed{}

type errClosed struct{}

func (errClosed) Error() string { return "sim: mailbox closed" }

// NewMailbox returns an empty mailbox bound to rt.
func NewMailbox[T any](rt Runtime) *Mailbox[T] {
	switch r := rt.(type) {
	case *Virtual:
		return &Mailbox[T]{impl: &vMailbox[T]{v: r}}
	case *Real:
		return &Mailbox[T]{impl: &rMailbox[T]{}}
	default:
		panic("sim: unknown runtime implementation")
	}
}

// Send enqueues v and reports true. It never blocks. A send to a closed
// mailbox is dropped and reports false, so a sender racing Close learns
// that nobody will receive v and can hand it elsewhere.
func (m *Mailbox[T]) Send(v T) bool { return m.impl.send(v) }

// Recv dequeues the next item, blocking as needed.
func (m *Mailbox[T]) Recv() (T, error) { return m.impl.recv(-1) }

// RecvTimeout is Recv with a deadline; ErrTimeout if nothing arrives in d.
func (m *Mailbox[T]) RecvTimeout(d time.Duration) (T, error) { return m.impl.recv(int64(d)) }

// TryRecv dequeues without blocking; ok reports whether an item was there.
func (m *Mailbox[T]) TryRecv() (T, bool) { return m.impl.tryRecv() }

// Close marks the mailbox closed; queued items remain receivable, after
// which Recv returns ErrClosed.
func (m *Mailbox[T]) Close() { m.impl.close() }

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return m.impl.length() }

// Reset empties the mailbox and opens it again, for an owner that reuses
// it. No task may be receiving from it, or still hold it to send, across
// the Reset.
func (m *Mailbox[T]) Reset() { m.impl.reset() }

// vMailbox is the virtual-runtime mailbox (single-threaded, lock-free). The
// queue is q[head:]; once drained it starts again at the front of the same
// array, as does the waiter list, so a reused mailbox stops allocating.
type vMailbox[T any] struct {
	v       *Virtual
	q       []T
	head    int
	closed  bool
	waiters []waiter
}

func (m *vMailbox[T]) send(v T) bool {
	if m.closed {
		return false
	}
	m.q = append(m.q, v)
	m.wakeAll()
	return true
}

func (m *vMailbox[T]) wakeAll() {
	for _, w := range m.waiters {
		m.v.unpark(w.t, w.gen)
	}
	clear(m.waiters)
	m.waiters = m.waiters[:0]
}

// pop dequeues the oldest item; the queue must not be empty.
func (m *vMailbox[T]) pop() T {
	v := m.q[m.head]
	var zero T
	m.q[m.head] = zero
	if m.head++; m.head == len(m.q) {
		m.q, m.head = m.q[:0], 0
	}
	return v
}

func (m *vMailbox[T]) recv(timeout int64) (T, error) {
	var deadline time.Duration
	if timeout >= 0 {
		deadline = m.v.now + time.Duration(timeout)
	}
	for {
		if m.length() > 0 {
			return m.pop(), nil
		}
		if m.closed {
			var zero T
			return zero, ErrClosed
		}
		if timeout >= 0 && m.v.now >= deadline {
			var zero T
			return zero, ErrTimeout
		}
		t, gen := m.v.prepare()
		m.waiters = append(m.waiters, waiter{t, gen})
		if timeout >= 0 {
			m.v.wakeAt(deadline, t, gen)
		}
		m.v.park(t)
		if timeout >= 0 {
			// Woken by the timer, the entry is still listed: take it back,
			// or a mailbox polled with a timeout piles up one per poll
			// until the next Send or Close.
			m.waiters = dropWaiter(m.waiters, t, gen)
		}
	}
}

func (m *vMailbox[T]) tryRecv() (T, bool) {
	if m.length() == 0 {
		var zero T
		return zero, false
	}
	return m.pop(), true
}

func (m *vMailbox[T]) close() {
	if m.closed {
		return
	}
	m.closed = true
	m.wakeAll()
}

func (m *vMailbox[T]) length() int { return len(m.q) - m.head }

func (m *vMailbox[T]) reset() {
	clear(m.q)
	m.q, m.head, m.closed = m.q[:0], 0, false
}

// rMailbox is the wall-clock mailbox (mutex + signal channels).
type rMailbox[T any] struct {
	mu      sync.Mutex
	q       []T
	closed  bool
	waiters []chan struct{}
}

func (m *rMailbox[T]) send(v T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.q = append(m.q, v)
	m.signalLocked()
	return true
}

func (m *rMailbox[T]) signalLocked() {
	for _, w := range m.waiters {
		close(w)
	}
	m.waiters = nil
}

func (m *rMailbox[T]) recv(timeout int64) (T, error) {
	var timer <-chan time.Time
	if timeout >= 0 {
		timer = newTimeoutChan(time.Duration(timeout))
	}
	for {
		m.mu.Lock()
		if len(m.q) > 0 {
			v := m.q[0]
			m.q = m.q[1:]
			m.mu.Unlock()
			return v, nil
		}
		if m.closed {
			m.mu.Unlock()
			var zero T
			return zero, ErrClosed
		}
		sig := make(chan struct{})
		m.waiters = append(m.waiters, sig)
		m.mu.Unlock()

		if timer == nil {
			<-sig
			continue
		}
		select {
		case <-sig:
		case <-timer:
			var zero T
			return zero, ErrTimeout
		}
	}
}

func (m *rMailbox[T]) tryRecv() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		var zero T
		return zero, false
	}
	v := m.q[0]
	m.q = m.q[1:]
	return v, true
}

func (m *rMailbox[T]) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.signalLocked()
}

func (m *rMailbox[T]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.q, m.closed = nil, false
}

func (m *rMailbox[T]) length() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q)
}

// newTimeoutChan returns a channel that fires after d of wall-clock time.
func newTimeoutChan(d time.Duration) <-chan time.Time { return time.After(d) }
