// Package conformance pins the behavioral contract every transport.Transport
// implementation must honor, as one reusable test suite. The simnet and
// nettrans test packages each adapt their backend to the Cluster interface
// and invoke Run; protocol code above the interface then cannot observe
// which backend it is on.
//
// The contract exercised here:
//
//   - Call round-trips a registered payload, and both request and reply are
//     codec copies — a handler mutating its request cannot reach the
//     caller's memory, exactly as across a process boundary.
//   - An error returned by a handler surfaces as *transport.RemoteError,
//     and registered sentinels survive errors.Is through it.
//   - Calling a service nobody registered yields a RemoteError wrapping
//     transport.ErrNoHandler.
//   - A handler that outlives the call's timeout yields transport.ErrTimeout.
//   - Multicast returns once `need` targets succeeded and reports per-target
//     results.
//   - MulticastLate reports every leg still outstanding at return to its
//     late hook exactly once — the reply when it lands, ErrTimeout at the
//     leg's deadline — and never a leg it returned; with no failing leg it
//     leaves no goroutine behind, like Multicast.
//   - Send delivers one-way, best effort, without disturbing the caller.
//   - A connection reset racing an in-flight call surfaces as ErrTimeout —
//     the retryable taxonomy — and the next call transparently reconnects
//     (backends expose the reset through the optional Disruptor interface).
//   - A handler registered with Handle may wait: a slow one does not hold up
//     the next request on the same link, and one that waits for its own node
//     to serve a later request on that link (a call back to its caller)
//     completes. Only transport.InlineHandler registrations may be served
//     on the reading goroutine.
package conformance

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Msg is the suite's payload; its codec id lives in the 900–999 test range.
type Msg struct {
	Tag  string
	Body []byte
}

// ErrBusy is the suite's application-level sentinel; handlers return it and
// callers must recover it via errors.Is even across a process boundary.
var ErrBusy = errors.New("conformance: busy")

func init() {
	wire.Register(910, "conformance.Msg",
		func(e *wire.Encoder, v Msg) {
			e.String(v.Tag)
			e.RawBytes(v.Body)
		},
		func(d *wire.Decoder) Msg {
			return Msg{Tag: d.String(), Body: d.RawBytes()}
		})
	wire.RegisterError(911, ErrBusy)
}

// Cluster adapts one transport backend to the suite. Implementations must
// provide at least three nodes with IDs 0, 1 and 2; the suite calls from
// node 0.
type Cluster interface {
	// Transport returns the transport through which the given node both
	// registers handlers and issues calls. A shared-fabric backend (simnet)
	// returns the same value for every node; a per-process backend
	// (nettrans) returns that node's own endpoint.
	Transport(node transport.NodeID) transport.Transport
	// Run executes the test body in the backend's execution context — a
	// virtual-runtime backend runs fn inside its scheduler, a real-time
	// backend just calls it. Handlers are registered before Run.
	Run(t *testing.T, fn func())
	// Close releases the cluster.
	Close()
}

// Disruptor is the optional fault hook a backend's cluster adapter may
// implement: Disrupt severs the live network path between two nodes the way
// a mid-call TCP reset does — in-flight exchanges die, and connectivity
// restores on its own afterwards (a killed connection redials on the next
// call; a black-holed simulated path heals after the in-flight window).
// Backends that implement it get the ResetInFlight case.
type Disruptor interface {
	Disrupt(from, to transport.NodeID)
}

// Run executes the full conformance suite, building a fresh cluster per
// subtest.
func Run(t *testing.T, mk func(t *testing.T) Cluster) {
	t.Run("CallEchoIsolated", func(t *testing.T) { testCallEchoIsolated(t, mk(t)) })
	t.Run("RemoteErrorSentinel", func(t *testing.T) { testRemoteErrorSentinel(t, mk(t)) })
	t.Run("NoHandler", func(t *testing.T) { testNoHandler(t, mk(t)) })
	t.Run("Timeout", func(t *testing.T) { testTimeout(t, mk(t)) })
	t.Run("MulticastQuorum", func(t *testing.T) { testMulticastQuorum(t, mk(t)) })
	t.Run("MulticastStragglerDrain", func(t *testing.T) { testMulticastStragglerDrain(t, mk(t), false) })
	t.Run("MulticastLateStraggler", func(t *testing.T) { testMulticastLateStraggler(t, mk(t)) })
	t.Run("MulticastLateDeadline", func(t *testing.T) { testMulticastLateDeadline(t, mk(t)) })
	t.Run("MulticastLateStragglerDrain", func(t *testing.T) { testMulticastStragglerDrain(t, mk(t), true) })
	t.Run("SendOneWay", func(t *testing.T) { testSendOneWay(t, mk(t)) })
	t.Run("ResetInFlight", func(t *testing.T) { testResetInFlight(t, mk(t)) })
	t.Run("HeadOfLine", func(t *testing.T) { testHeadOfLine(t, mk(t)) })
	t.Run("ReentrantWait", func(t *testing.T) { testReentrantWait(t, mk(t)) })
}

// testHeadOfLine pins that a Handle-registered handler does not block the
// link it arrived on: while a 500 ms handler on node 1 is in flight from
// node 0, a second 0→1 call to a fast handler returns within 50 ms of what
// the same call takes on an idle link (the link's own round trip: zero on
// loopback, a WAN RTT on simnet). A transport that served Handle
// registrations on the connection's read loop would hold the second call
// behind the first.
func testHeadOfLine(t *testing.T, c Cluster) {
	defer c.Close()
	const slowFor = 500 * time.Millisecond
	srv := c.Transport(1)
	started := sim.NewPromise[struct{}](srv.Runtime())
	srv.Handle(1, "conf.hol.slow", func(from transport.NodeID, req any) (any, error) {
		started.Resolve(struct{}{})
		srv.Runtime().Sleep(slowFor)
		return Msg{Tag: "slow"}, nil
	})
	srv.Handle(1, "conf.hol.fast", func(from transport.NodeID, req any) (any, error) {
		return Msg{Tag: "fast"}, nil
	})
	c.Run(t, func() {
		tr := c.Transport(0)
		rt := tr.Runtime()
		// Warm the link so the timed calls measure serving, not a dial.
		var idle time.Duration
		for i := 0; i < 2; i++ {
			start := rt.Now()
			if _, err := tr.CallTimeout(0, 1, "conf.hol.fast", Msg{}, 2*time.Second); err != nil {
				t.Errorf("idle call: %v", err)
				return
			}
			idle = rt.Now() - start
		}
		slowDone := sim.NewPromise[error](rt)
		rt.Go(func() {
			_, err := tr.CallTimeout(0, 1, "conf.hol.slow", Msg{}, 4*slowFor)
			slowDone.Resolve(err)
		})
		if _, err := started.AwaitTimeout(2 * time.Second); err != nil {
			t.Error("slow handler never started")
			return
		}
		start := rt.Now()
		resp, err := tr.CallTimeout(0, 1, "conf.hol.fast", Msg{}, 2*time.Second)
		if elapsed := rt.Now() - start; err != nil || elapsed >= idle+50*time.Millisecond {
			t.Errorf("fast call behind a slow one = (%v, %v) after %v, want a reply within 50ms of an idle call's %v",
				resp, err, elapsed, idle)
		}
		if callErr, _ := slowDone.Await(); callErr != nil {
			t.Errorf("slow call: %v", callErr)
		}
	})
}

// testReentrantWait pins that a Handle-registered handler may wait on a
// request that arrives after its own on the same link: node 1's handler
// calls node 0, whose handler calls node 1 back over the 0→1 link the first
// request came in on, and both calls complete. A transport that served
// Handle registrations on the connection's read loop would deadlock here
// until the inner call timed out.
func testReentrantWait(t *testing.T, c Cluster) {
	defer c.Close()
	const hop = time.Second
	caller, callee := c.Transport(0), c.Transport(1)
	callee.Handle(1, "conf.reenter", func(from transport.NodeID, req any) (any, error) {
		return callee.CallTimeout(1, 0, "conf.bounce", req, hop)
	})
	caller.Handle(0, "conf.bounce", func(from transport.NodeID, req any) (any, error) {
		return caller.CallTimeout(0, 1, "conf.answer", req, hop)
	})
	callee.Handle(1, "conf.answer", func(from transport.NodeID, req any) (any, error) {
		return Msg{Tag: "re:" + req.(Msg).Tag}, nil
	})
	c.Run(t, func() {
		resp, err := caller.CallTimeout(0, 1, "conf.reenter", Msg{Tag: "loop"}, 3*hop)
		if err != nil {
			t.Errorf("re-entrant call: %v", err)
			return
		}
		if got := resp.(Msg).Tag; got != "re:loop" {
			t.Errorf("re-entrant reply = %q, want re:loop", got)
		}
	})
}

// testResetInFlight severs the network path while a call is in flight: the
// caller must see the uniform retryable failure (ErrTimeout, never a raw
// socket error), and the very next calls must transparently reconnect.
func testResetInFlight(t *testing.T, c Cluster) {
	defer c.Close()
	d, ok := c.(Disruptor)
	if !ok {
		t.Skip("backend adapter implements no Disruptor")
	}
	slow := c.Transport(1)
	slow.Handle(1, "conf.slowecho", func(from transport.NodeID, req any) (any, error) {
		slow.Runtime().Sleep(400 * time.Millisecond)
		return req, nil
	})
	c.Run(t, func() {
		rt := c.Transport(0).Runtime()
		rt.Go(func() {
			rt.Sleep(100 * time.Millisecond)
			d.Disrupt(0, 1)
		})
		_, err := c.Transport(0).CallTimeout(0, 1, "conf.slowecho", Msg{Tag: "doomed"}, 800*time.Millisecond)
		if err == nil {
			t.Error("in-flight call survived a connection reset")
			return
		}
		if !errors.Is(err, transport.ErrTimeout) {
			t.Errorf("reset surfaced as %v, want the retryable ErrTimeout", err)
		}
		var recovered bool
		for i := 0; i < 50 && !recovered; i++ {
			resp, err := c.Transport(0).CallTimeout(0, 1, "conf.slowecho", Msg{Tag: "again"}, 2*time.Second)
			if err == nil {
				if got := resp.(Msg).Tag; got != "again" {
					t.Errorf("post-reset reply = %q", got)
				}
				recovered = true
				break
			}
			rt.Sleep(100 * time.Millisecond)
		}
		if !recovered {
			t.Error("calls never reconnected after the reset")
		}
	})
}

func testCallEchoIsolated(t *testing.T, c Cluster) {
	defer c.Close()
	sent := []byte{1, 2, 3}
	var handlerBody atomic.Pointer[[]byte]
	c.Transport(1).Handle(1, "conf.echo", func(from transport.NodeID, req any) (any, error) {
		m := req.(Msg)
		m.Body[0] = 99 // must not corrupt the sender's slice
		handlerBody.Store(&m.Body)
		return Msg{Tag: "re:" + m.Tag, Body: m.Body}, nil
	})
	c.Run(t, func() {
		resp, err := c.Transport(0).Call(0, 1, "conf.echo", Msg{Tag: "hi", Body: sent})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		got := resp.(Msg)
		if got.Tag != "re:hi" || !bytes.Equal(got.Body, []byte{99, 2, 3}) {
			t.Errorf("reply = %+v", got)
		}
		if sent[0] != 1 {
			t.Errorf("handler mutation reached the caller's slice: %v", sent)
		}
		got.Body[1] = 77 // nor may the caller reach the handler's copy
		if hb := handlerBody.Load(); hb != nil && (*hb)[1] != 2 {
			t.Errorf("caller mutation reached the handler's slice: %v", *hb)
		}
	})
}

func testRemoteErrorSentinel(t *testing.T, c Cluster) {
	defer c.Close()
	c.Transport(1).Handle(1, "conf.busy", func(from transport.NodeID, req any) (any, error) {
		return nil, ErrBusy
	})
	c.Run(t, func() {
		_, err := c.Transport(0).Call(0, 1, "conf.busy", Msg{Tag: "q"})
		var re *transport.RemoteError
		if !errors.As(err, &re) {
			t.Errorf("err = %v, want *transport.RemoteError", err)
		}
		if !errors.Is(err, ErrBusy) {
			t.Errorf("err = %v, want errors.Is(err, ErrBusy)", err)
		}
		if errors.Is(err, transport.ErrTimeout) {
			t.Errorf("application error %v must not look like a timeout", err)
		}
	})
}

func testNoHandler(t *testing.T, c Cluster) {
	defer c.Close()
	c.Run(t, func() {
		_, err := c.Transport(0).Call(0, 1, "conf.nobody-home", Msg{Tag: "q"})
		var re *transport.RemoteError
		if !errors.As(err, &re) || !errors.Is(err, transport.ErrNoHandler) {
			t.Errorf("err = %v, want RemoteError wrapping ErrNoHandler", err)
		}
	})
}

func testTimeout(t *testing.T, c Cluster) {
	defer c.Close()
	slow := c.Transport(2)
	slow.Handle(2, "conf.slow", func(from transport.NodeID, req any) (any, error) {
		slow.Runtime().Sleep(500 * time.Millisecond)
		return Msg{Tag: "late"}, nil
	})
	c.Run(t, func() {
		_, err := c.Transport(0).CallTimeout(0, 2, "conf.slow", Msg{Tag: "q"}, 50*time.Millisecond)
		if !errors.Is(err, transport.ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
}

func testMulticastQuorum(t *testing.T, c Cluster) {
	defer c.Close()
	var served atomic.Int32
	for _, id := range []transport.NodeID{0, 1, 2} {
		id := id
		c.Transport(id).Handle(id, "conf.vote", func(from transport.NodeID, req any) (any, error) {
			served.Add(1)
			return Msg{Tag: "ack"}, nil
		})
	}
	c.Run(t, func() {
		results := c.Transport(0).Multicast(0, []transport.NodeID{0, 1, 2}, "conf.vote", Msg{Tag: "q"}, 2, 2*time.Second)
		ok := transport.Successes(results)
		if len(ok) < 2 {
			t.Errorf("successes = %d of %d results, want ≥2", len(ok), len(results))
		}
		for _, r := range ok {
			if r.Resp.(Msg).Tag != "ack" {
				t.Errorf("reply from n%d = %+v", r.From, r.Resp)
			}
		}
		seen := map[transport.NodeID]bool{}
		for _, r := range results {
			if seen[r.From] {
				t.Errorf("duplicate result from n%d", r.From)
			}
			seen[r.From] = true
		}
	})
}

// lateLog records what a MulticastLate's late hook saw. The hook may run on
// any goroutine, so every access takes the lock.
type lateLog struct {
	mu      sync.Mutex
	reports []transport.CallResult
	at      []time.Duration
}

func (l *lateLog) hook(rt sim.Runtime) func(transport.CallResult) {
	return func(r transport.CallResult) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.reports = append(l.reports, r)
		l.at = append(l.at, rt.Now())
	}
}

func (l *lateLog) snapshot() ([]transport.CallResult, []time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]transport.CallResult(nil), l.reports...), append([]time.Duration(nil), l.at...)
}

// waitFor polls cond every 10 ms for up to 2 s of the runtime's time.
func waitFor(rt sim.Runtime, cond func() bool) bool {
	for i := 0; i < 200; i++ {
		if cond() {
			return true
		}
		rt.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// testMulticastStragglerDrain pins the cleanup contract of a quorum-early
// return: when Multicast comes back with `need` successes while a slow
// target is still working, whatever machinery was waiting on the straggler
// must drain on its own once that target answers — no goroutine parked
// forever on a result channel nobody reads (whether the transport fans out
// with per-target goroutines or demultiplexes replies onto the caller),
// and no timeout timer left running for the rest of the window. withLate
// runs the same round through MulticastLate: a straggler that answers must
// leave nothing behind either, and reaches the hook once.
func testMulticastStragglerDrain(t *testing.T, c Cluster, withLate bool) {
	defer c.Close()
	const slowFor = 700 * time.Millisecond
	var slowDone atomic.Bool
	for _, id := range []transport.NodeID{0, 1, 2} {
		id := id
		c.Transport(id).Handle(id, "conf.warm", func(from transport.NodeID, req any) (any, error) {
			return Msg{Tag: "ack"}, nil
		})
		if id != 2 {
			c.Transport(id).Handle(id, "conf.drain", func(from transport.NodeID, req any) (any, error) {
				return Msg{Tag: "ack"}, nil
			})
		}
	}
	slow := c.Transport(2)
	slow.Handle(2, "conf.drain", func(from transport.NodeID, req any) (any, error) {
		slow.Runtime().Sleep(slowFor)
		slowDone.Store(true)
		return Msg{Tag: "ack"}, nil
	})
	c.Run(t, func() {
		tr := c.Transport(0)
		rt := tr.Runtime()
		var late lateLog
		multicast := func(svc string, need int) []transport.CallResult {
			targets := []transport.NodeID{0, 1, 2}
			if withLate {
				return tr.MulticastLate(0, targets, svc, Msg{Tag: "q"}, need, 5*time.Second, late.hook(rt))
			}
			return tr.Multicast(0, targets, svc, Msg{Tag: "q"}, need, 5*time.Second)
		}
		// Warm every path first (connections, per-node workers, lazy tracer
		// state) so the goroutine baseline below reflects steady state, not a
		// cold cluster.
		warm := multicast("conf.warm", 0)
		if got := len(transport.Successes(warm)); got != 3 {
			t.Errorf("warm-up successes = %d, want 3", got)
			return
		}
		baseline := runtime.NumGoroutine()
		start := rt.Now()
		results := multicast("conf.drain", 2)
		if got := len(transport.Successes(results)); got < 2 {
			t.Errorf("successes = %d, want ≥2", got)
			return
		}
		if elapsed := rt.Now() - start; elapsed >= slowFor/2 {
			t.Errorf("quorum return took %v, want well under the %v straggler", elapsed, slowFor)
		}
		// The straggler is still inside its call. Wait out its handler, then
		// require the goroutine count to settle back: its result must land in
		// a buffer (or a closed mailbox) rather than block a goroutine, and
		// the multicast window's timer must not still be ticking toward 5s.
		if !waitFor(rt, slowDone.Load) {
			t.Error("straggler handler never completed")
			return
		}
		if !waitFor(rt, func() bool { return runtime.NumGoroutine() <= baseline+2 }) {
			t.Errorf("goroutines never drained after quorum-early multicast: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		if withLate {
			waitFor(rt, func() bool { r, _ := late.snapshot(); return len(r) > 0 })
			if reports, _ := late.snapshot(); len(reports) != 1 || reports[0].From != 2 || reports[0].Err != nil {
				t.Errorf("late reports = %+v, want one success from n2", reports)
			}
		}
	})
}

// testMulticastLateStraggler pins the late hook's bookkeeping: a leg that
// answers after the quorum reaches late exactly once, with its reply, and a
// leg MulticastLate returned never does.
func testMulticastLateStraggler(t *testing.T, c Cluster) {
	defer c.Close()
	const slowFor = 400 * time.Millisecond
	for _, id := range []transport.NodeID{0, 1, 2} {
		id := id
		tr := c.Transport(id)
		tr.Handle(id, "conf.late", func(from transport.NodeID, req any) (any, error) {
			if id == 2 {
				tr.Runtime().Sleep(slowFor)
			}
			return Msg{Tag: "ack"}, nil
		})
	}
	c.Run(t, func() {
		tr := c.Transport(0)
		rt := tr.Runtime()
		var late lateLog
		results := tr.MulticastLate(0, []transport.NodeID{0, 1, 2}, "conf.late", Msg{Tag: "q"}, 2, 5*time.Second, late.hook(rt))
		returned := map[transport.NodeID]bool{}
		for _, r := range results {
			returned[r.From] = true
			if r.Err != nil {
				t.Errorf("n%d failed: %v", r.From, r.Err)
			}
		}
		if len(results) != 2 || returned[2] {
			t.Errorf("returned %+v, want the two fast legs", results)
			return
		}
		if !waitFor(rt, func() bool { r, _ := late.snapshot(); return len(r) > 0 }) {
			t.Error("the straggler never reached late")
			return
		}
		rt.Sleep(slowFor) // room for a duplicate or a stray report to show
		reports, _ := late.snapshot()
		if len(reports) != 1 {
			t.Errorf("late reports = %+v, want exactly one", reports)
			return
		}
		r := reports[0]
		if r.From != 2 || r.Err != nil || r.Resp.(Msg).Tag != "ack" {
			t.Errorf("late report = %+v, want n2's ack", r)
		}
	})
}

// testMulticastLateDeadline pins the other way a late leg ends: a target
// that does not answer within the call's timeout reports ErrTimeout to late
// once, at the leg's deadline and not when its reply finally turns up.
func testMulticastLateDeadline(t *testing.T, c Cluster) {
	defer c.Close()
	const timeout, slowFor = 300 * time.Millisecond, 900 * time.Millisecond
	var slowDone atomic.Bool
	for _, id := range []transport.NodeID{0, 1, 2} {
		id := id
		tr := c.Transport(id)
		tr.Handle(id, "conf.hole", func(from transport.NodeID, req any) (any, error) {
			if id == 2 {
				tr.Runtime().Sleep(slowFor)
				slowDone.Store(true)
			}
			return Msg{Tag: "ack"}, nil
		})
	}
	c.Run(t, func() {
		tr := c.Transport(0)
		rt := tr.Runtime()
		var late lateLog
		start := rt.Now()
		results := tr.MulticastLate(0, []transport.NodeID{0, 1, 2}, "conf.hole", Msg{Tag: "q"}, 2, timeout, late.hook(rt))
		if got := len(transport.Successes(results)); got != 2 {
			t.Errorf("successes = %d, want the two live legs", got)
			return
		}
		if !waitFor(rt, slowDone.Load) {
			t.Error("the black-holed handler never completed")
			return
		}
		rt.Sleep(100 * time.Millisecond) // its reply lands after the deadline
		reports, at := late.snapshot()
		if len(reports) != 1 {
			t.Errorf("late reports = %+v, want exactly one", reports)
			return
		}
		if r := reports[0]; r.From != 2 || !errors.Is(r.Err, transport.ErrTimeout) {
			t.Errorf("late report = %+v, want ErrTimeout from n2", r)
		}
		if elapsed := at[0] - start; elapsed < timeout || elapsed >= slowFor {
			t.Errorf("late report after %v, want at the %v deadline, before the %v reply", elapsed, timeout, slowFor)
		}
	})
}

func testSendOneWay(t *testing.T, c Cluster) {
	defer c.Close()
	var got atomic.Int32
	c.Transport(1).Handle(1, "conf.cast", func(from transport.NodeID, req any) (any, error) {
		if req.(Msg).Tag == "fire" {
			got.Add(1)
		}
		return nil, nil
	})
	c.Run(t, func() {
		tr := c.Transport(0)
		tr.Send(0, 1, "conf.cast", Msg{Tag: "fire"})
		rt := tr.Runtime()
		for i := 0; i < 200 && got.Load() == 0; i++ {
			rt.Sleep(10 * time.Millisecond)
		}
		if got.Load() != 1 {
			t.Errorf("one-way delivered %d times, want 1", got.Load())
		}
	})
}
