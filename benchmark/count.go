package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// maxCaptured bounds the encoded messages kept for the wire-codec layer
// metrics; the first few sections already cover every message type.
const maxCaptured = 4096

// svcStats accounts one transport service (store.read, store.prepare, …).
type svcStats struct {
	Invocations int64           // Call/CallTimeout/Send/Multicast invocations
	Serve       []time.Duration // handler durations, one per request served
}

// layerStats is the account a traced run keeps below the MUSIC API: every
// message the protocol stack hands to the transport and every request a
// replica-side handler serves. All sites of a deployment share one value,
// so the totals are per deployment, not per node.
type layerStats struct {
	mu         sync.Mutex
	svc        map[string]*svcStats
	calls      int64 // Call + CallTimeout invocations
	sends      int64 // one-way Send invocations
	multicasts int64 // Multicast invocations
	legs       int64 // request messages put on the plane
	replies    int64 // successful replies returned to callers
	bytes      int64 // payload + frame-prefix bytes of requests and replies
	callTime   time.Duration
	captured   [][]byte    // wire.Marshal of the first maxCaptured messages
	full       atomic.Bool // captured has reached maxCaptured
}

func newLayerStats() *layerStats { return &layerStats{svc: make(map[string]*svcStats)} }

// snapshot is a point-in-time copy of the scalar counters; per-section
// numbers are differences of two snapshots over the sections between them.
type snapshot struct {
	calls, sends, multicasts, legs, replies, bytes int64
	callTime                                       time.Duration
	svcInvocations                                 map[string]int64
}

func (s *layerStats) snapshot() snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := snapshot{
		calls: s.calls, sends: s.sends, multicasts: s.multicasts,
		legs: s.legs, replies: s.replies, bytes: s.bytes, callTime: s.callTime,
		svcInvocations: make(map[string]int64, len(s.svc)),
	}
	for name, st := range s.svc {
		out.svcInvocations[name] = st.Invocations
	}
	return out
}

// totalBytes reads the byte counter alone: the section driver samples it at
// every section boundary, where a full snapshot would cost more than the
// section's own bookkeeping.
func (s *layerStats) totalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// serveTimes returns a copy of the handler durations recorded for svc.
func (s *layerStats) serveTimes(svc string) []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.svc[svc]
	if st == nil {
		return nil
	}
	return append([]time.Duration(nil), st.Serve...)
}

// resetServe drops the handler durations gathered so far (warm-up).
func (s *layerStats) resetServe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.svc {
		st.Serve = st.Serve[:0]
	}
}

func (s *layerStats) capturedMessages() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.captured...)
}

func (s *layerStats) svcLocked(name string) *svcStats {
	st := s.svc[name]
	if st == nil {
		st = &svcStats{}
		s.svc[name] = st
	}
	return st
}

// encodedSize is the bytes msg occupies on the wire — its payload plus the
// frame length prefix, the same estimate chaosnet charges — and, while the
// capture buffer has room, a copy of the encoding.
func encodedSize(msg any, keep bool) (int, []byte) {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	if err := wire.MarshalTo(e, msg); err != nil {
		return 0, nil // unregistered payloads cannot cross the real plane
	}
	var copied []byte
	if keep {
		copied = append([]byte(nil), e.Bytes()...)
	}
	return e.Len() + wire.FrameOverhead, copied
}

// note books one invocation: its request legs, the replies that came back,
// their bytes, and the caller-side time.
func (s *layerStats) note(svc string, req any, legs int, resps []any, d time.Duration, kind *int64) {
	keep := !s.full.Load()
	reqSize, reqCopy := encodedSize(req, keep)
	total := int64(reqSize) * int64(legs)
	copies := [][]byte{reqCopy}
	for _, r := range resps {
		n, c := encodedSize(r, keep)
		total += int64(n)
		copies = append(copies, c)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	*kind++
	s.legs += int64(legs)
	s.replies += int64(len(resps))
	s.bytes += total
	s.callTime += d
	s.svcLocked(svc).Invocations++
	for _, c := range copies {
		if c != nil && len(s.captured) < maxCaptured {
			s.captured = append(s.captured, c)
		}
	}
	if len(s.captured) == maxCaptured {
		s.full.Store(true)
	}
}

// counting is the interposition point of the traced pass: a
// transport.Transport that forwards everything to the backend it wraps and
// books what went through. It re-implements nothing — Multicast stays the
// backend's own fan-out — so protocol code above it cannot tell it is there
// (the conformance suite runs against it to prove that).
type counting struct {
	transport.Transport
	stats *layerStats
	now   func() time.Duration
}

// wrapCounting interposes stats between inner and the stack built over it.
// now is the clock calls and handlers are timed on, the one the sections
// above them are timed on.
func wrapCounting(inner transport.Transport, stats *layerStats, now func() time.Duration) transport.Transport {
	return &counting{Transport: inner, stats: stats, now: now}
}

func (c *counting) Call(from, to transport.NodeID, svc string, req any) (any, error) {
	return c.CallTimeout(from, to, svc, req, c.Transport.RPCTimeout())
}

func (c *counting) CallTimeout(from, to transport.NodeID, svc string, req any, timeout time.Duration) (any, error) {
	start := c.now()
	resp, err := c.Transport.CallTimeout(from, to, svc, req, timeout)
	var resps []any
	if err == nil {
		resps = []any{resp}
	}
	c.stats.note(svc, req, 1, resps, c.now()-start, &c.stats.calls)
	return resp, err
}

func (c *counting) Send(from, to transport.NodeID, svc string, req any) {
	c.Transport.Send(from, to, svc, req)
	c.stats.note(svc, req, 1, nil, 0, &c.stats.sends)
}

func (c *counting) Multicast(from transport.NodeID, targets []transport.NodeID, svc string, req any, need int, timeout time.Duration) []transport.CallResult {
	start := c.now()
	results := c.Transport.Multicast(from, targets, svc, req, need, timeout)
	resps := make([]any, 0, len(results))
	for _, r := range results {
		if r.Err == nil {
			resps = append(resps, r.Resp)
		}
	}
	c.stats.note(svc, req, len(targets), resps, c.now()-start, &c.stats.multicasts)
	return results
}

// timed wraps a handler so the time a replica spends serving each request is
// booked under its service.
func (c *counting) timed(svc string, h transport.Handler) transport.Handler {
	return func(from transport.NodeID, req any) (any, error) {
		start := c.now()
		resp, err := h(from, req)
		d := c.now() - start
		c.stats.mu.Lock()
		st := c.stats.svcLocked(svc)
		st.Serve = append(st.Serve, d)
		c.stats.mu.Unlock()
		return resp, err
	}
}

func (c *counting) Handle(node transport.NodeID, svc string, h transport.Handler) {
	c.Transport.Handle(node, svc, c.timed(svc, h))
}

func (c *counting) HandleWithCost(node transport.NodeID, svc string, h transport.Handler, base, perKB time.Duration) {
	c.Transport.HandleWithCost(node, svc, c.timed(svc, h), base, perKB)
}
