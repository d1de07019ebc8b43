package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// message is one request on the simulated wire and, for a call, the reply
// that comes back for it: everything the delivery task, the reply task and
// the waiting caller share. Its tasks run methods bound once, when the
// record is made, and the record is kept for reuse once its last holder
// lets go, so a message in flight allocates only its encoded bytes and the
// copies its deliveries decode.
//
// The free list is the Network's own (see freeList). Holders are counted
// atomically, which keeps reuse correct on the wall-clock runtime, where
// the holders run on goroutines of their own.
type message struct {
	n        *Network
	from, to NodeID
	svc      string
	req      any
	encoded  []byte // req's encoding; a multicast's legs share it, read-only
	size     int
	parent   obs.SpanContext // the span delay components hang off
	awaited  bool            // a caller waits for the reply: false for a one-way Send
	timeout  time.Duration   // a multicast leg's call timeout
	mc       *collector      // the multicast this is a leg of, if any

	reply *sim.Promise[any] // made with the record, Reset for each reuse
	// The reply leg in flight: the handler's result, and the encoding of a
	// successful one.
	resp        any
	err         error
	respEncoded []byte

	// The holders: a caller until its wait ends, and the message itself
	// until it is lost or delivered (a call's until its reply is).
	refs atomic.Int32

	deliverFn, settleFn, legFn func() // deliver, settle and leg, bound once
}

// newMessage returns a record for a request of svc from -> to carrying req,
// reused when one is free, with no holder counted yet.
func (n *Network) newMessage(from, to NodeID, svc string, req any, encoded []byte, size int) *message {
	m := n.msgs.get()
	if m == nil {
		m = &message{n: n, reply: sim.NewPromise[any](n.rt)}
		m.deliverFn, m.settleFn, m.legFn = m.deliver, m.settle, m.leg
	}
	m.from, m.to, m.svc, m.req, m.encoded, m.size = from, to, svc, req, encoded, size
	return m
}

// release drops one holder. The last one resets the record and frees it.
func (m *message) release() {
	if m.refs.Add(-1) > 0 {
		return
	}
	m.reply.Reset()
	m.svc, m.req, m.encoded, m.parent, m.awaited, m.timeout, m.mc = "", nil, nil, obs.SpanContext{}, false, 0, nil
	m.resp, m.err, m.respEncoded = nil, nil, nil
	m.n.msgs.put(m)
}

// deliver is the delivery task: the request has arrived at its destination,
// which admits it to a CPU server, runs the handler and sends the reply.
func (m *message) deliver() {
	n := m.n
	dst := n.nodes[m.to]
	if !dst.isUp() {
		n.countDrop(m.svc)
		m.release()
		return
	}
	spec, ok := dst.handler(m.svc)
	if !ok {
		n.sendReply(m, nil, &RemoteError{Err: errNoHandler(m.svc, m.to)})
		return
	}
	req := n.decode(m.svc, m.req, m.encoded)
	arrived := n.rt.Now()
	cost := spec.cost(m.size)
	dst.cpu.Serve(cost)
	tr := n.obs.Tracer()
	if wait := n.rt.Now() - arrived - cost; wait > 0 {
		tr.SpanAt(m.parent, "net.cpuwait", arrived, arrived+wait)
	}
	if !dst.isUp() {
		n.countDrop(m.svc)
		m.release()
		return
	}
	// The serve span covers the modeled CPU burn plus the handler body,
	// and is installed task-current so nested RPCs the handler makes
	// parent under it. Its name and note are built only when tracing.
	var serve *obs.Span
	if tr != nil {
		serve = tr.StartAt(m.parent, "serve:"+m.svc, n.rt.Now()-cost)
		serve.Annotatef("node", "%s/n%d", dst.site, dst.id)
	}
	resp, err := spec.fn(m.from, req)
	serve.EndErr(err)
	if err != nil {
		err = &RemoteError{Err: err}
	}
	n.sendReply(m, resp, err)
}

// settle is the reply task: the reply has arrived back at the caller's
// node, and settles the caller's wait unless that node has gone down.
func (m *message) settle() {
	n := m.n
	if n.nodes[m.from].isUp() {
		if m.err != nil {
			m.reply.Reject(m.err)
		} else {
			m.reply.Resolve(n.decode("reply", m.resp, m.respEncoded))
		}
	}
	m.release()
}

// leg is a multicast leg's task: one call, its outcome reported to the
// multicast.
func (m *message) leg() {
	c, to := m.mc, m.to // m is reused once the call lets go of it
	resp, err := m.n.call(m, m.timeout)
	c.report(CallResult{From: to, Resp: resp, Err: err})
}

// collector gathers one multicast's leg outcomes for the caller, and hands
// the legs still out when the caller returns to its late hook. Like a
// message, it is pooled per Network.
type collector struct {
	n       *Network
	results *sim.Mailbox[CallResult] // made with the record, Reset for each reuse
	late    func(CallResult)
	// The holders: the caller until it returns, and each leg until it
	// has reported.
	refs atomic.Int32
}

// newCollector returns a collector for a multicast of legs legs, reused
// when one is free, held by the caller and by every leg.
func (n *Network) newCollector(legs int, late func(CallResult)) *collector {
	c := n.collectors.get()
	if c == nil {
		c = &collector{n: n, results: sim.NewMailbox[CallResult](n.rt)}
	}
	c.late = late
	c.refs.Store(int32(legs) + 1)
	return c
}

// report hands a leg's outcome to the caller, or to late once the caller
// has returned (a closed mailbox refuses it), and lets go of c.
func (c *collector) report(r CallResult) {
	if !c.results.Send(r) && c.late != nil {
		c.late(r)
	}
	c.release()
}

// release drops one holder. The last one resets the record and frees it.
func (c *collector) release() {
	if c.refs.Add(-1) > 0 {
		return
	}
	c.results.Reset()
	c.late = nil
	c.n.collectors.put(c)
}

// freeList keeps a Network's released records for reuse. It belongs to one
// Network, and so to one runtime, and is never a sync.Pool: what a run
// reuses depends on that run alone. It is locked because on the wall-clock
// runtime records are released from many goroutines.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get returns the most recently released record, or nil when none is free.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return nil
	}
	x := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return x
}

// put keeps x, which nothing holds any more, for a later get.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
