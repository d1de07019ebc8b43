package simnet

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// message is one request on the simulated wire and, for a call, the reply
// that comes back for it: everything its delivery, its reply, its
// multicast leg and the waiting caller share. Each stage runs as a
// sim.Step bound once, when the record is made, one step per continuation,
// and the record is kept for reuse once its last holder lets go, so a
// message in flight allocates only its encoded bytes and the copies its
// deliveries decode.
//
// The free list is the Network's own (see freeList). Holders are counted
// in a plain integer: the virtual runtime runs one step or task at a time,
// and each hand-off between its goroutines is a happens-before edge.
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

	// The delivery in progress: the handler found when the request was
	// sent, and, while it waits for a CPU server, the decoded request and
	// the instant it arrived.
	spec    handlerSpec
	found   bool
	decoded any
	arrived time.Duration

	// With tracing on, the caller's rpc span and when the call began.
	rpc   *obs.Span
	timed bool
	start time.Duration

	reply *sim.Promise[any] // made with the record, Reset for each reuse
	// The reply leg in flight: the handler's result, and the encoding of a
	// successful one.
	resp        any
	err         error
	respEncoded []byte

	// The holders: a caller until its wait ends, and the message itself
	// until it is lost or delivered (a call's until its reply is).
	refs int32

	// The steps, each the rest of the work after a wait: arrival at the
	// destination, the handler once a CPU server has served the request,
	// the reply's arrival back at the caller, and a multicast leg's call
	// and its end.
	arrive, serve, settle, leg, legEnd *sim.Step
	// deliverFn is the delivery as a task, for a handler that may wait.
	deliverFn func()
}

// newMessage returns a record for a request of svc from -> to carrying req,
// reused when one is free, with no holder counted yet.
func (n *Network) newMessage(from, to NodeID, svc string, req any, encoded []byte, size int) *message {
	m := n.msgs.get()
	if m == nil {
		m = &message{n: n, reply: sim.NewPromise[any](n.rt)}
		m.arrive = sim.NewStep(n.rt, m.arriveStep)
		m.serve = sim.NewStep(n.rt, m.serveStep)
		m.settle = sim.NewStep(n.rt, m.settleStep)
		m.leg = sim.NewStep(n.rt, m.legStep)
		m.legEnd = sim.NewStep(n.rt, m.legEndStep)
		m.deliverFn = m.deliverTask
	}
	m.from, m.to, m.svc, m.req, m.encoded, m.size = from, to, svc, req, encoded, size
	return m
}

// release drops one holder. The last one resets the record and frees it.
func (m *message) release() {
	if m.refs--; m.refs > 0 {
		return
	}
	m.reply.Reset()
	m.svc, m.req, m.encoded, m.parent, m.awaited, m.timeout, m.mc = "", nil, nil, obs.SpanContext{}, false, 0, nil
	m.spec, m.found, m.decoded = handlerSpec{}, false, nil
	m.rpc, m.timed = nil, false
	m.resp, m.err, m.respEncoded = nil, nil, nil
	m.n.msgs.put(m)
}

// admit reports whether the request can be served on arrival at its
// destination: the node is up and has a handler for it. A request for a
// service the node does not serve is answered with an error here.
func (m *message) admit() bool {
	n := m.n
	dst := n.nodes[m.to]
	if !dst.isUp() {
		n.countDrop(m.svc)
		m.release()
		return false
	}
	if !m.found {
		if m.spec, m.found = dst.handler(m.svc); !m.found {
			n.sendReply(m, nil, &RemoteError{Err: errNoHandler(m.svc, m.to)})
			return false
		}
	}
	m.decoded = n.decode(m.svc, m.req, m.encoded)
	m.arrived = n.rt.Now()
	return true
}

// arriveStep delivers a request for a handler that never waits: it is
// admitted to a CPU server, and the handler runs once served.
func (m *message) arriveStep() {
	if m.admit() && m.n.nodes[m.to].cpu.ServeStep(m.spec.cost(m.size), m.serve) {
		m.serveStep()
	}
}

// deliverTask is the delivery of a request for a handler that may wait: a
// task of its own, which waits for its CPU server in place.
func (m *message) deliverTask() {
	if m.admit() {
		m.n.nodes[m.to].cpu.Serve(m.spec.cost(m.size))
		m.serveStep()
	}
}

// serveStep runs the handler on a request its CPU server has served and
// sends the reply.
func (m *message) serveStep() {
	n := m.n
	dst := n.nodes[m.to]
	cost := m.spec.cost(m.size)
	tr := n.obs.Tracer()
	if wait := n.rt.Now() - m.arrived - cost; wait > 0 {
		tr.SpanAt(m.parent, "net.cpuwait", m.arrived, m.arrived+wait)
	}
	if !dst.isUp() {
		n.countDrop(m.svc)
		m.release()
		return
	}
	// The serve span covers the modeled CPU burn plus the handler body,
	// and is installed task-current so nested RPCs a delivery task's
	// handler makes parent under it. Its name and note are built only when
	// tracing.
	var serve *obs.Span
	if tr != nil {
		serve = tr.StartAt(m.parent, "serve:"+m.svc, n.rt.Now()-cost)
		serve.Annotatef("node", "%s/n%d", dst.site, dst.id)
	}
	req := m.decoded
	m.decoded = nil
	resp, err := m.handle(req)
	serve.EndErr(err)
	if err != nil {
		err = &RemoteError{Err: err}
	}
	n.sendReply(m, resp, err)
}

// handle runs the handler on req. An inline handler runs in a step, which
// cannot wait: one that tries fails the run with an error naming it, since
// it has broken transport.InlineHandler's promise.
func (m *message) handle(req any) (any, error) {
	if m.spec.inline {
		defer func() {
			if r := recover(); r != nil {
				if r == sim.ErrStepWait {
					r = fmt.Errorf("simnet: inline handler for %q on node %d waited: %w", m.svc, m.to, sim.ErrStepWait)
				}
				panic(r)
			}
		}()
	}
	return m.spec.fn(m.from, req)
}

// settleStep is the reply's arrival back at the caller's node: it settles
// the caller's wait unless that node has gone down.
func (m *message) settleStep() {
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

// legStep is a multicast leg: one call, whose outcome legEndStep reports to
// the multicast.
func (m *message) legStep() {
	m.n.startCall(m, m.parent)
	if m.reply.AwaitStep(m.legEnd, m.timeout) {
		m.legEndStep()
	}
}

// legEndStep ends a leg's call and reports its outcome to the multicast.
func (m *message) legEndStep() {
	resp, err := m.reply.StepResult(m.legEnd)
	c, to := m.mc, m.to // m is reused once the call lets go of it
	m.n.endCall(m, err)
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
	refs int32
}

// newCollector returns a collector for a multicast of legs legs, reused
// when one is free, held by the caller and by every leg.
func (n *Network) newCollector(legs int, late func(CallResult)) *collector {
	c := n.collectors.get()
	if c == nil {
		c = &collector{n: n, results: sim.NewMailbox[CallResult](n.rt)}
	}
	c.late = late
	c.refs = int32(legs) + 1
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
	if c.refs--; c.refs > 0 {
		return
	}
	c.results.Reset()
	c.late = nil
	c.n.collectors.put(c)
}

// freeList keeps a Network's released records for reuse. It belongs to one
// Network, and so to one virtual runtime, and is never a sync.Pool: what a
// run reuses depends on that run alone. It needs no lock, because the
// runtime runs one step or task at a time.
type freeList[T any] struct {
	free []*T
}

// get returns the most recently released record, or nil when none is free.
func (l *freeList[T]) get() *T {
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
	l.free = append(l.free, x)
}
