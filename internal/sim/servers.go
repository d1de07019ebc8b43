package sim

import "time"

// Servers is a pool of k identical servers taking jobs in FIFO order: a
// simulated machine's CPU. Serve blocks the calling task until a server has
// spent the job's cost on it, so up to k callers are served at once and the
// rest wait their turn. Servers runs no task of its own.
//
// It reproduces, step for step, k worker tasks that receive jobs from a
// shared Mailbox, Sleep for each job's cost and Resolve the job's Promise,
// without running any of them: each server is a Step while it looks for a
// job and a timer event while it is busy. The ready queue and the timer heap
// see what they saw from the worker tasks — the same entries at the same
// positions, the same sequence numbers — so the schedule and every random
// draw stay as they were.
type Servers struct {
	v    *Virtual
	idle int    // servers parked on the empty queue, in the mailbox's waiter list
	jobs []vJob // queued jobs, oldest first
	look *Step  // a server woken to look for a job
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

// NewServers returns a pool of k servers bound to v. k must be positive.
// It readies k servers where k spawned worker tasks would stand in the
// ready queue; each finds the queue empty when it runs and goes idle.
func NewServers(v *Virtual, k int) *Servers {
	if k < 1 {
		panic("sim: NewServers needs at least one server")
	}
	s := &Servers{v: v}
	s.takeFn = s.take
	s.look = NewStep(v, s.takeFn)
	for i := 0; i < k; i++ {
		s.look.Ready()
	}
	return s
}

// Serve queues a job of cost and blocks until a server has finished it. A
// cost of zero or less returns at once without queueing.
func (s *Servers) Serve(cost time.Duration) {
	if cost <= 0 {
		return
	}
	t, gen := s.v.prepare()
	s.queue(cost, t, gen)
	s.v.park(t)
}

// ServeStep is Serve for a step: it queues a job of cost for st, which
// must be the step that runs the rest of the caller's work. It reports true
// when st may go on at once — the cost is zero or less — and the caller
// then runs st's function itself. It reports false when the job is queued;
// the scheduler then runs st once a server has finished it, at the instant
// and ready-queue position a task parked in Serve would have been resumed
// at.
func (s *Servers) ServeStep(cost time.Duration, st *Step) bool {
	if cost <= 0 {
		return true
	}
	t, gen := st.block()
	s.queue(cost, t, gen)
	return false
}

// queue adds the job of the waiter (t, gen) and wakes every idle server,
// as a Mailbox send wakes every waiting receiver.
func (s *Servers) queue(cost time.Duration, t *vtask, gen uint64) {
	s.jobs = append(s.jobs, vJob{cost: cost, t: t, gen: gen})
	for ; s.idle > 0; s.idle-- {
		s.look.Ready()
	}
}

// take is a server looking for work: it starts the oldest queued job, whose
// completion timer unparks the job's caller and then looks again — a worker
// woken from its Sleep, resolving the job's promise and receiving the next
// — or, with nothing queued, goes idle until the next Serve.
func (s *Servers) take() {
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
