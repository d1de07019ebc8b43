// Package nettrans carries the transport.Transport message plane over real
// TCP connections, so the protocol stack that runs against internal/simnet
// in tests runs unchanged between musicd processes.
//
// Every message travels as a length-prefixed frame (internal/wire) holding a
// small routing header plus the payload encoded by its registered wire
// codec. Each process owns one Transport: it listens on its own address,
// keeps one lazily dialed outbound connection per peer (with reconnect and
// exponential backoff), and multiplexes concurrent calls over it by request
// id. Transport failures — a dead peer, a refused dial, a broken pipe —
// surface as transport.ErrTimeout, and handler errors come back wrapped in
// transport.RemoteError with registered sentinels (wire.RegisterError)
// surviving the process boundary, so callers cannot tell this plane from
// the simulated one.
//
// The hot path is allocation- and goroutine-frugal: frames are assembled in
// pooled single buffers with back-patched length prefixes, each connection
// batches concurrent senders' frames through a combining write queue that
// never holds a lock across a syscall (or a dial — dials are single-flight),
// Multicast fans out and demultiplexes replies without spawning goroutines,
// self-calls run synchronously through the codecs, and handlers registered
// with HandleInline run on the connection's read loop. DESIGN.md "The TCP
// hot path" tells the full story.
package nettrans

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Frame kinds, the first header byte inside each wire frame.
const (
	kindCall   = 1 // expects a reply with the same request id
	kindReply  = 2
	kindOneway = 3 // no reply
)

// Reply status byte.
const (
	statusOK  = 0
	statusErr = 1 // payload is a wire-encoded error
)

// Peer describes one node of the cluster, including this process's own.
type Peer struct {
	ID   transport.NodeID `json:"id"`
	Site string           `json:"site"`
	Addr string           `json:"addr"`
}

// Config describes this process's slot in the cluster.
type Config struct {
	// Self is this process's node id; Peers must contain it.
	Self transport.NodeID
	// Peers lists every node in the cluster.
	Peers []Peer
	// RPCTimeout is the default Call timeout. Defaults to 4s.
	RPCTimeout time.Duration
	// DialTimeout bounds one connection attempt. Defaults to 1s.
	DialTimeout time.Duration
	// BackoffFloor and BackoffCeil bound the exponential redial backoff
	// after a failed dial. Default to 50ms and 2s; chaos soaks tighten both
	// so a partitioned peer is re-probed quickly once the window heals.
	BackoffFloor time.Duration
	BackoffCeil  time.Duration
	// Dial, when set, replaces net.DialTimeout for outbound connections.
	// internal/chaosnet interposes here: the hook can refuse the dial (a
	// partitioned pair) or wrap the returned conn in a fault-injecting one.
	Dial func(peer Peer, timeout time.Duration) (net.Conn, error)
	// Listener, when set, is used instead of listening on Self's Addr —
	// tests pass a port-0 listener whose address the peer set then records.
	Listener net.Listener
	// Obs enables RPC spans and latency metrics. Nil disables both.
	Obs *obs.Obs
}

// Transport is the TCP message plane. It must be built on a real-time
// runtime (sim.NewReal) — sockets do not advance virtual clocks.
type Transport struct {
	rt    sim.Runtime
	cfg   Config
	obs   *obs.Obs
	self  transport.NodeID
	peers map[transport.NodeID]Peer

	lis net.Listener

	mu       sync.Mutex
	handlers map[string]handlerEntry
	conns    map[transport.NodeID]*peerConn
	inbound  map[net.Conn]struct{}
	closed   bool

	nextReq atomic.Uint64
	pending sync.Map // reqID uint64 → *pendingCall
}

// pendingCall is one in-flight request awaiting its reply. Several ids may
// share one result channel (a multicast round); the reply pump tags each
// result with the target it came from. Both the entry and the channel are
// pooled — steady-state RPC traffic reuses a handful of each.
//
// A late entry (late != nil, ch == nil) is a MulticastLate leg its caller
// stopped waiting for: the reply pump hands the result to late instead, and
// timer, the leg's deadline, reports ErrTimeout if it wins the entry first.
// Late entries are never pooled, because the deadline timer may still hold
// one after the reply has claimed it.
type pendingCall struct {
	to    transport.NodeID
	ch    chan transport.CallResult
	late  func(transport.CallResult)
	timer atomic.Pointer[time.Timer]
}

var pendingCallPool = sync.Pool{New: func() any { return new(pendingCall) }}

// maxPooledFanout caps the capacity of pooled result channels; it must be
// at least the widest multicast fan-out that shares one channel, so that
// every reply fits without blocking the reply pump.
const maxPooledFanout = 16

var resultChPool = sync.Pool{
	New: func() any { return make(chan transport.CallResult, maxPooledFanout) },
}

// acquireResultCh returns an empty result channel with capacity ≥ n.
func acquireResultCh(n int) chan transport.CallResult {
	if n > maxPooledFanout {
		return make(chan transport.CallResult, n)
	}
	return resultChPool.Get().(chan transport.CallResult)
}

// releaseResultCh returns ch to the pool. Callers must guarantee it is
// empty and no send can still be in flight (every pending id mapped to it
// reclaimed or its reply drained).
func releaseResultCh(ch chan transport.CallResult) {
	if cap(ch) == maxPooledFanout {
		resultChPool.Put(ch)
	}
}

type handlerEntry struct {
	fn transport.Handler
	// name is the canonical (registration-time) service string. serveConn
	// looks handlers up through a byte view of the read buffer and adopts
	// this stable string instead of materializing a fresh one per request.
	name string
	// inline marks a HandleInline registration: serveConn runs it on the
	// connection's read loop instead of a goroutine of its own.
	inline bool
}

var _ transport.Transport = (*Transport)(nil)
var _ transport.PeerEditor = (*Transport)(nil)
var _ transport.AddrReporter = (*Transport)(nil)
var _ transport.InlineHandler = (*Transport)(nil)

// New builds the transport and starts its accept loop. The returned
// Transport serves inbound calls immediately; outbound connections are
// dialed on first use.
func New(rt sim.Runtime, cfg Config) (*Transport, error) {
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 4 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.BackoffFloor == 0 {
		cfg.BackoffFloor = 50 * time.Millisecond
	}
	if cfg.BackoffCeil == 0 {
		cfg.BackoffCeil = 2 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(peer Peer, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", peer.Addr, timeout)
		}
	}
	t := &Transport{
		rt:       rt,
		cfg:      cfg,
		obs:      cfg.Obs,
		self:     cfg.Self,
		peers:    make(map[transport.NodeID]Peer, len(cfg.Peers)),
		handlers: make(map[string]handlerEntry),
		conns:    make(map[transport.NodeID]*peerConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	for _, p := range cfg.Peers {
		t.peers[p.ID] = p
	}
	self, ok := t.peers[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("nettrans: self node %d not in peer set", cfg.Self)
	}
	t.lis = cfg.Listener
	if t.lis == nil {
		lis, err := net.Listen("tcp", self.Addr)
		if err != nil {
			return nil, fmt.Errorf("nettrans: listen %s: %w", self.Addr, err)
		}
		t.lis = lis
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address the transport is listening on.
func (t *Transport) Addr() string { return t.lis.Addr().String() }

// Self returns this process's node id.
func (t *Transport) Self() transport.NodeID { return t.self }

// Runtime returns the wall-clock runtime the transport was built on.
func (t *Transport) Runtime() sim.Runtime { return t.rt }

// Obs returns the observability sink (nil when disabled).
func (t *Transport) Obs() *obs.Obs { return t.obs }

// Tracer returns the shared tracer (nil-safe when observability is off).
func (t *Transport) Tracer() *obs.Tracer { return t.obs.Tracer() }

// Nodes returns every node id in the peer set, ascending.
func (t *Transport) Nodes() []transport.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]transport.NodeID, 0, len(t.peers))
	for id := range t.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SiteOf returns the site hosting id.
func (t *Transport) SiteOf(id transport.NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[id].Site
}

// NodesInSite returns the ids in the named site, ascending.
func (t *Transport) NodesInSite(site string) []transport.NodeID {
	var ids []transport.NodeID
	for _, id := range t.Nodes() {
		if t.SiteOf(id) == site {
			ids = append(ids, id)
		}
	}
	return ids
}

// AddrOf returns id's listen address (the transport.AddrReporter
// capability), or "" for a peer this process does not know.
func (t *Transport) AddrOf(id transport.NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[id].Addr
}

// Peers returns a snapshot of the current peer table, ascending by id.
func (t *Transport) Peers() []Peer {
	t.mu.Lock()
	out := make([]Peer, 0, len(t.peers))
	for _, p := range t.peers {
		out = append(out, p)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddPeer makes id dialable at addr (the transport.PeerEditor capability —
// how a membership join reaches this process's message plane). Re-adding an
// existing id with a new address drops its cached connection so the next
// send dials the replacement process.
func (t *Transport) AddPeer(id transport.NodeID, site, addr string) error {
	if site == "" || addr == "" {
		return fmt.Errorf("nettrans: AddPeer n%d: empty site or addr", id)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("nettrans: transport closed")
	}
	prev, existed := t.peers[id]
	t.peers[id] = Peer{ID: id, Site: site, Addr: addr}
	var stale *peerConn
	if existed && prev.Addr != addr {
		stale = t.conns[id]
		delete(t.conns, id)
	}
	t.mu.Unlock()
	if stale != nil {
		stale.close()
	}
	return nil
}

// RemovePeer forgets id and closes any connection to it. In-flight calls to
// the removed peer fail with ErrTimeout like any lost message.
func (t *Transport) RemovePeer(id transport.NodeID) error {
	if id == t.self {
		return fmt.Errorf("nettrans: RemovePeer n%d: cannot remove self", id)
	}
	t.mu.Lock()
	if _, ok := t.peers[id]; !ok {
		t.mu.Unlock()
		return fmt.Errorf("nettrans: RemovePeer n%d: unknown peer", id)
	}
	delete(t.peers, id)
	pc := t.conns[id]
	delete(t.conns, id)
	t.mu.Unlock()
	if pc != nil {
		pc.close()
	}
	return nil
}

// RTT returns 0 for every site pair: a real network measures, it does not
// model. So over TCP store's ONE reads try their own node first, then the
// other replicas by node id (store.Client.byDistance).
func (t *Transport) RTT(a, b string) time.Duration { return 0 }

// RPCTimeout returns the default Call timeout.
func (t *Transport) RPCTimeout() time.Duration { return t.cfg.RPCTimeout }

// Handle registers h for svc on this process's node. Registering for a
// remote node is a programming error and panics.
func (t *Transport) Handle(node transport.NodeID, svc string, h transport.Handler) {
	t.register(node, svc, handlerEntry{fn: h, name: svc})
}

// HandleWithCost is Handle; modeled CPU cost does not apply to real CPUs.
func (t *Transport) HandleWithCost(node transport.NodeID, svc string, h transport.Handler, base, perKB time.Duration) {
	t.Handle(node, svc, h)
}

// HandleInline is Handle for a handler that never waits (the
// transport.InlineHandler capability): inbound requests for svc run on the
// connection's read loop, with no goroutine between the frame and h.
func (t *Transport) HandleInline(node transport.NodeID, svc string, h transport.Handler, base, perKB time.Duration) {
	t.register(node, svc, handlerEntry{fn: h, name: svc, inline: true})
}

func (t *Transport) register(node transport.NodeID, svc string, e handlerEntry) {
	if node != t.self {
		panic(fmt.Sprintf("nettrans: Handle(%q) for node %d on the transport of node %d", svc, node, t.self))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[svc] = e
}

// OnRestart is a no-op: a real process that crashes is a new process.
func (t *Transport) OnRestart(node transport.NodeID, fn func()) {}

// Work is a no-op: real handlers burn real CPU.
func (t *Transport) Work(node transport.NodeID, cost time.Duration) {}

// Call sends req to `to` for svc and waits for the reply using the default
// RPC timeout.
func (t *Transport) Call(from, to transport.NodeID, svc string, req any) (any, error) {
	return t.CallTimeout(from, to, svc, req, t.cfg.RPCTimeout)
}

// CallTimeout is Call with an explicit timeout. The from node must be this
// process's own (a process cannot originate traffic for another machine).
func (t *Transport) CallTimeout(from, to transport.NodeID, svc string, req any, timeout time.Duration) (resp any, err error) {
	// The span name concat and route annotation are gated on an enabled
	// tracer: with obs off (the default) the call path must not pay them.
	if tr := t.obs.Tracer(); tr != nil {
		rpc := tr.Detached(tr.Current().Context(), "rpc:"+svc, t.rt.Now())
		rpc.Annotatef("route", "n%d → n%d", from, to)
		start := t.rt.Now()
		defer func() {
			t.obs.Metrics().Histogram("nettrans_rpc_latency", obs.Labels{"svc": svc}).
				Observe(t.rt.Now() - start)
			rpc.EndErr(err)
		}()
	}

	if to == t.self {
		return t.callLocal(from, svc, req)
	}

	ch := acquireResultCh(1)
	id, err := t.startCall(to, svc, req, ch)
	if err != nil {
		releaseResultCh(ch)
		return nil, err
	}
	tm := acquireTimer(timeout)
	defer releaseTimer(tm)
	select {
	case r := <-ch:
		// The reply pump removed the pending entry before sending; the
		// channel is ours again and empty.
		releaseResultCh(ch)
		return r.Resp, r.Err
	case <-tm.C:
		if v, ok := t.pending.LoadAndDelete(id); ok {
			// We removed the entry, so no reply can ever be sent: pool it.
			pendingCallPool.Put(v)
			releaseResultCh(ch)
		} else {
			// The reply pump claimed the entry first; its (buffered, non-
			// blocking) send is imminent. Drain the late reply, then pool.
			<-ch
			releaseResultCh(ch)
		}
		return nil, timeoutErr(svc, to)
	}
}

// startCall encodes req as a call frame, registers id → ch in the pending
// table, and queues the frame for to's connection — the non-blocking half
// of an RPC, shared by CallTimeout and Multicast. It never waits for a
// reply; the reply pump delivers a tagged CallResult on ch. On error the
// pending entry is reclaimed and nothing will ever be sent on ch for it.
func (t *Transport) startCall(to transport.NodeID, svc string, req any, ch chan transport.CallResult) (uint64, error) {
	fr := wire.GetEncoder()
	id := t.nextReq.Add(1)
	if err := appendCallFrame(fr, kindCall, id, t.self, svc, req); err != nil {
		wire.PutEncoder(fr)
		return 0, fmt.Errorf("nettrans: %s request: %w", svc, err)
	}
	pc := pendingCallPool.Get().(*pendingCall)
	pc.to, pc.ch = to, ch
	t.pending.Store(id, pc)
	if err := t.send(to, fr); err != nil {
		wire.PutEncoder(fr)
		if v, ok := t.pending.LoadAndDelete(id); ok {
			pendingCallPool.Put(v)
		}
		// A peer we cannot reach looks exactly like a lost message.
		return 0, fmt.Errorf("nettrans: %s to n%d: %v: %w", svc, to, err, transport.ErrTimeout)
	}
	return id, nil
}

// callLocal dispatches a self-call without touching the socket, but still
// round-trips the payload through its codec so the handler gets the same
// isolated copy a remote caller's handler would. The handler runs
// synchronously on the caller's goroutine — a process cannot be partitioned
// from itself, so the call timeout (which models network loss) does not
// apply, and the self-leg of every quorum round costs two codec copies
// instead of a goroutine handoff, a timer and two channel operations.
func (t *Transport) callLocal(from transport.NodeID, svc string, req any) (any, error) {
	h, ok := t.handler(svc)
	if !ok {
		return nil, &transport.RemoteError{Err: fmt.Errorf("%w: %q on node %d", transport.ErrNoHandler, svc, t.self)}
	}
	reqCopy, err := codecCopy(req)
	if err != nil {
		return nil, fmt.Errorf("nettrans: %s request: %w", svc, err)
	}
	resp, herr := h(from, reqCopy)
	if herr != nil {
		return nil, &transport.RemoteError{Err: herr}
	}
	resp, err = codecCopy(resp)
	if err != nil {
		return nil, &transport.RemoteError{Err: err}
	}
	return resp, nil
}

// codecCopy moves v through its wire codec, yielding an independent copy.
// The encode buffer is pooled; Unmarshal's codecs copy whatever the decoded
// value retains.
func codecCopy(v any) (any, error) {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	if err := wire.MarshalTo(e, v); err != nil {
		return nil, err
	}
	return wire.Unmarshal(e.Bytes())
}

// Send delivers req without waiting for a reply, best effort: marshal or
// connection failures drop the message silently, like a lossy network.
func (t *Transport) Send(from, to transport.NodeID, svc string, req any) {
	if to == t.self {
		if h, ok := t.handler(svc); ok {
			if reqCopy, err := codecCopy(req); err == nil {
				go func() { _, _ = h(from, reqCopy) }()
			}
		}
		return
	}
	fr := wire.GetEncoder()
	if err := appendCallFrame(fr, kindOneway, 0, t.self, svc, req); err != nil {
		wire.PutEncoder(fr)
		return
	}
	if err := t.send(to, fr); err != nil {
		wire.PutEncoder(fr)
	}
}

// Multicast fans req out to every target and collects replies until need of
// them succeeded, everyone answered, or the timeout elapsed — without
// spawning a single goroutine. It is MulticastLate with no late hook.
func (t *Transport) Multicast(from transport.NodeID, targets []transport.NodeID, svc string, req any, need int, timeout time.Duration) []transport.CallResult {
	return t.MulticastLate(from, targets, svc, req, need, timeout, nil)
}

// mcLeg is one remote leg of a multicast round.
type mcLeg struct {
	id uint64
	to transport.NodeID
}

// MulticastLate fans req out to every target and collects replies until
// need of them succeeded, everyone answered, or the timeout elapsed. Each
// remote frame is encoded and queued inline from the caller, the self-leg
// runs synchronously after the remote frames are on their way, and all
// replies demultiplex onto one shared pooled result channel through the
// pending table (replies come back tagged with the sender, so out-of-order
// completion is fine). What happens to the legs still outstanding at return
// is settle's job. No goroutine is spawned unless a late leg's deadline
// fires.
func (t *Transport) MulticastLate(from transport.NodeID, targets []transport.NodeID, svc string, req any, need int, timeout time.Duration, late func(transport.CallResult)) []transport.CallResult {
	var deadline time.Time
	if late != nil {
		deadline = time.Now().Add(timeout)
	}
	results := acquireResultCh(len(targets))
	collected := make([]transport.CallResult, 0, len(targets))
	var legbuf [8]mcLeg
	legs := legbuf[:0]
	successes, consumedRemote := 0, 0
	selfTarget := false
	for _, to := range targets {
		if to == t.self {
			selfTarget = true // run after the remote frames are queued
			continue
		}
		id, err := t.startCall(to, svc, req, results)
		if err != nil {
			collected = append(collected, transport.CallResult{From: to, Err: err})
			continue
		}
		legs = append(legs, mcLeg{id: id, to: to})
	}
	done := func() []transport.CallResult {
		t.settle(legs, len(legs)-consumedRemote, results, svc, late, deadline)
		return collected
	}
	if selfTarget {
		resp, err := t.callLocal(from, svc, req)
		collected = append(collected, transport.CallResult{From: t.self, Resp: resp, Err: err})
		if err == nil {
			successes++
			if need > 0 && successes >= need {
				return done()
			}
		}
	}
	if len(collected) == len(targets) {
		return done()
	}
	tm := acquireTimer(timeout)
	defer releaseTimer(tm)
	for len(collected) < len(targets) {
		select {
		case r := <-results:
			consumedRemote++
			collected = append(collected, r)
			if r.Err == nil {
				successes++
				if need > 0 && successes >= need {
					return done()
				}
			}
		case <-tm.C:
			return done()
		}
	}
	return done()
}

// settle disposes of a multicast round's legs once its caller stops
// waiting, then pools the result channel. unconsumed legs never reached the
// caller. Each is either still in the pending table (no reply yet) or was
// claimed by the reply pump, whose buffered, non-blocking send of its result
// on results has happened or is imminent.
//
// Without late, pending entries are reclaimed and claimed results drained
// and dropped: nothing — no goroutine, no stuck send, no pending-table
// entry — outlives the call. With late, a claimed result is drained and
// reported here, and a pending entry is swapped for a late one (see
// pendingCall) whose reply or deadline reports later; once the deadline
// has passed, the leg reports ErrTimeout here instead.
func (t *Transport) settle(legs []mcLeg, unconsumed int, results chan transport.CallResult, svc string, late func(transport.CallResult), deadline time.Time) {
	var remaining time.Duration
	if late != nil {
		remaining = time.Until(deadline)
	}
	for _, l := range legs {
		if late == nil || remaining <= 0 {
			if v, ok := t.pending.LoadAndDelete(l.id); ok {
				pendingCallPool.Put(v)
				unconsumed--
				if late != nil {
					late(transport.CallResult{From: l.to, Err: timeoutErr(svc, l.to)})
				}
			}
			continue
		}
		v, ok := t.pending.Load(l.id)
		if !ok {
			continue
		}
		lp := &pendingCall{to: l.to, late: late}
		if !t.pending.CompareAndSwap(l.id, v, lp) {
			continue // the reply pump claimed it between the Load and the swap
		}
		pendingCallPool.Put(v)
		unconsumed--
		id, to := l.id, l.to
		// The pump may claim lp before the timer is stored; the timer then
		// finds the entry gone and reports nothing.
		lp.timer.Store(time.AfterFunc(remaining, func() {
			if t.pending.CompareAndDelete(id, lp) {
				late(transport.CallResult{From: to, Err: timeoutErr(svc, to)})
			}
		}))
	}
	for ; unconsumed > 0; unconsumed-- {
		r := <-results
		if late != nil {
			late(r)
		}
	}
	releaseResultCh(results)
}

// timeoutErr is the error a call to `to` for svc reports when no reply came
// within its timeout.
func timeoutErr(svc string, to transport.NodeID) error {
	return fmt.Errorf("nettrans: %s to n%d: %w", svc, to, transport.ErrTimeout)
}

// Close shuts the listener and every connection down. In-flight calls fail
// with ErrTimeout.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.conns = map[transport.NodeID]*peerConn{}
	inbound := t.inbound
	t.inbound = map[net.Conn]struct{}{}
	t.mu.Unlock()

	_ = t.lis.Close()
	for _, pc := range conns {
		pc.close()
	}
	for c := range inbound {
		_ = c.Close()
	}
}

func (t *Transport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *Transport) handler(svc string) (transport.Handler, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handlers[svc]
	return h.fn, ok
}

// handlerForBytes is handler keyed by a byte view of the service name. The
// string(svc) conversion inside the map index does not allocate, and the
// returned entry carries the canonical name string registered with Handle.
func (t *Transport) handlerForBytes(svc []byte) (handlerEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handlers[string(svc)]
	return h, ok
}

// appendCallFrame appends the complete on-wire encoding of one call or
// one-way message to fr — frame length prefix included, so header, routing
// and payload leave in a single Write:
//
//	[u32 frame len][u8 kind][u64 reqID][u32 from][u32 len(svc)][svc][u32 len(payload)][payload]
//
// The payload is marshaled straight into fr (no intermediate buffer); both
// length prefixes are back-patched once their sections are in place. On a
// marshal error fr is restored to its prior length.
func appendCallFrame(fr *wire.Encoder, kind byte, id uint64, from transport.NodeID, svc string, req any) error {
	frameOff := fr.Len()
	fr.Uint32(0) // frame length, patched below
	fr.Uint8(kind)
	fr.Uint64(id)
	fr.Uint32(uint32(from))
	fr.String(svc)
	payOff := fr.Len()
	fr.Uint32(0) // payload length, patched below
	if err := wire.MarshalTo(fr, req); err != nil {
		fr.Truncate(frameOff)
		return err
	}
	fr.FixUint32(payOff, uint32(fr.Len()-payOff-4))
	fr.FixUint32(frameOff, uint32(fr.Len()-frameOff-4))
	return nil
}

// appendReplyFrame appends a complete reply frame to fr:
//
//	[u32 frame len][u8 kind=reply][u64 reqID][u8 status][payload|error]
//
// mirroring appendCallFrame's single-buffer, single-write layout. On a
// marshal error fr is restored to its prior length so the caller can append
// an error reply instead.
func appendReplyFrame(fr *wire.Encoder, id uint64, resp any, herr error) error {
	frameOff := fr.Len()
	fr.Uint32(0) // frame length, patched below
	fr.Uint8(kindReply)
	fr.Uint64(id)
	if herr != nil {
		fr.Uint8(statusErr)
		wire.EncodeError(fr, herr)
	} else {
		fr.Uint8(statusOK)
		payOff := fr.Len()
		fr.Uint32(0) // payload length, patched below
		if err := wire.MarshalTo(fr, resp); err != nil {
			fr.Truncate(frameOff)
			return err
		}
		fr.FixUint32(payOff, uint32(fr.Len()-payOff-4))
	}
	fr.FixUint32(frameOff, uint32(fr.Len()-frameOff-4))
	return nil
}
