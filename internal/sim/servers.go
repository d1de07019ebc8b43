package sim

import "time"

// Servers is a pool of k identical servers taking jobs in FIFO order: a
// simulated machine's CPU. Serve blocks the calling task until a server has
// spent the job's cost on it, so up to k callers are served at once and the
// rest wait their turn. Servers runs no task of its own.
type Servers struct {
	impl serversImpl
}

type serversImpl interface {
	serve(cost time.Duration)
}

// NewServers returns a pool of k servers bound to rt. k must be positive.
func NewServers(rt Runtime, k int) *Servers {
	if k < 1 {
		panic("sim: NewServers needs at least one server")
	}
	switch r := rt.(type) {
	case *Virtual:
		return &Servers{impl: newVServers(r, k)}
	case *Real:
		return &Servers{impl: &rServers{rt: r, slots: make(chan struct{}, k)}}
	default:
		panic("sim: unknown runtime implementation")
	}
}

// Serve queues a job of cost and blocks until a server has finished it. A
// cost of zero or less returns at once without queueing.
func (s *Servers) Serve(cost time.Duration) {
	if cost > 0 {
		s.impl.serve(cost)
	}
}

// vServers is the virtual-time pool. It reproduces, step for step, k worker
// tasks that receive jobs from a shared Mailbox, Sleep for each job's cost
// and Resolve the job's Promise, without running any of them: each server
// is a call entry in the ready queue while it looks for a job and a timer
// event while it is busy. The ready queue and the timer heap see what they
// saw from the worker tasks — the same entries at the same positions, the
// same sequence numbers — so the schedule and every random draw stay as
// they were.
type vServers struct {
	v    *Virtual
	idle int    // servers parked on the empty queue, in the mailbox's waiter list
	jobs []vJob // queued jobs, oldest first
	look *vtask // the call entry of a server woken to look for a job
	// take as a func value, bound once: a method value made per completion
	// timer would allocate.
	takeFn func()
}

// vJob is one queued Serve: its cost and its parked caller.
type vJob struct {
	cost time.Duration
	t    *vtask
	gen  uint64
}

// newVServers readies k servers where k spawned worker tasks would stand in
// the ready queue; each finds the queue empty when it runs and goes idle.
func newVServers(v *Virtual, k int) *vServers {
	s := &vServers{v: v}
	s.takeFn = s.take
	s.look = &vtask{call: s.takeFn}
	for i := 0; i < k; i++ {
		v.ready = append(v.ready, s.look)
	}
	return s
}

// serve queues the caller's job, wakes every idle server as a Mailbox send
// wakes every waiting receiver, and parks the caller until its job is done.
func (s *vServers) serve(cost time.Duration) {
	t, gen := s.v.prepare()
	s.jobs = append(s.jobs, vJob{cost: cost, t: t, gen: gen})
	for ; s.idle > 0; s.idle-- {
		s.v.ready = append(s.v.ready, s.look)
	}
	s.v.park(t)
}

// take is a server looking for work: it starts the oldest queued job, whose
// completion timer unparks the job's caller and then looks again — a worker
// woken from its Sleep, resolving the job's promise and receiving the next
// — or, with nothing queued, goes idle until the next Serve.
func (s *vServers) take() {
	if len(s.jobs) == 0 {
		s.idle++
		return
	}
	j := s.jobs[0]
	n := copy(s.jobs, s.jobs[1:])
	s.jobs[n] = vJob{}
	s.jobs = s.jobs[:n]
	e := s.v.schedule(s.v.now + j.cost)
	e.wake, e.gen, e.call = j.t, j.gen, s.takeFn
}

// rServers is the wall-clock pool: a k-slot semaphore around Sleep.
type rServers struct {
	rt    *Real
	slots chan struct{}
}

func (s *rServers) serve(cost time.Duration) {
	s.slots <- struct{}{}
	s.rt.Sleep(cost)
	<-s.slots
}
