package nettrans

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Connection management. Each pair of processes uses (up to) two TCP
// connections, one per direction: the side issuing a call writes on the
// connection it dialed and reads replies off it, and the accepting side
// reads calls and writes replies back on the same socket. That keeps the
// multiplexing state simple — a connection's reader is either a pure
// client-side reply pump or a pure server-side request loop.
//
// Outbound frames go through a per-peer send queue drained by a combining
// writer: whichever sender finds no writer active takes the role, and every
// sender that arrives while a write syscall is in flight just enqueues and
// returns. The active writer batches everything queued behind it into one
// writev-shaped net.Buffers write, so under load N concurrent callers share
// a syscall instead of serializing N writes — and nobody ever holds pc.mu
// across a syscall or a dial.

// peerConn is the lazily dialed outbound connection to one peer. The redial
// backoff is bounded by Config.BackoffFloor/BackoffCeil.
type peerConn struct {
	peer Peer

	mu       sync.Mutex
	conn     net.Conn
	backoff  time.Duration
	nextDial time.Time
	closed   bool

	// Single-flight dial: dialing marks one sender's dial in progress;
	// dialDone is closed when it resolves, so concurrent senders wait for
	// that outcome (bounded by DialTimeout) instead of stacking N dials.
	dialing  bool
	dialDone chan struct{}

	// Send queue. queue holds complete frames (length prefix included)
	// awaiting the writer; writing marks the combining writer active. batch
	// and bufs are the writer's scratch, reused across drains — they are
	// only touched by the sender currently holding the writing token.
	queue   []*wire.Encoder
	writing bool
	batch   []*wire.Encoder
	bufs    net.Buffers
}

func (pc *peerConn) close() {
	pc.mu.Lock()
	pc.closed = true
	if pc.conn != nil {
		_ = pc.conn.Close()
		pc.conn = nil
	}
	queue := pc.queue
	pc.queue = nil
	pc.mu.Unlock()
	for _, fr := range queue {
		wire.PutEncoder(fr)
	}
}

// send queues one complete frame for the peer, dialing if needed. On
// success the queue owns fr; on error the caller does (and returns it to
// the pool). A write failure detected by the drain loop drops the
// connection; the next send redials, gated by backoff.
func (t *Transport) send(to transport.NodeID, fr *wire.Encoder) error {
	pc := t.peerConnFor(to)
	if pc == nil {
		return fmt.Errorf("unknown peer n%d", to)
	}
	for {
		pc.mu.Lock()
		if pc.closed {
			pc.mu.Unlock()
			return fmt.Errorf("transport closed")
		}
		if pc.conn != nil {
			pc.queue = append(pc.queue, fr)
			if pc.writing {
				pc.mu.Unlock()
				return nil // the active writer will batch this frame
			}
			pc.writing = true
			pc.drain() // unlocks pc.mu
			return nil
		}
		if until := time.Until(pc.nextDial); until > 0 {
			pc.mu.Unlock()
			return fmt.Errorf("peer %s in dial backoff for %v", pc.peer.Addr, until.Round(time.Millisecond))
		}
		if pc.dialing {
			done := pc.dialDone
			pc.mu.Unlock()
			<-done
			continue // re-check: a live conn, a fresh backoff window, or a lost race
		}
		pc.dialing = true
		pc.dialDone = make(chan struct{})
		pc.mu.Unlock()

		// The dial happens outside pc.mu: concurrent senders during this
		// window wait on dialDone above rather than serializing behind a
		// mutex held for up to DialTimeout.
		conn, err := t.cfg.Dial(pc.peer, t.cfg.DialTimeout)

		pc.mu.Lock()
		pc.dialing = false
		close(pc.dialDone)
		if err != nil {
			pc.backoff = min(max(2*pc.backoff, t.cfg.BackoffFloor), t.cfg.BackoffCeil)
			pc.nextDial = time.Now().Add(pc.backoff)
			pc.mu.Unlock()
			return err
		}
		if pc.closed {
			pc.mu.Unlock()
			_ = conn.Close()
			return fmt.Errorf("transport closed")
		}
		pc.backoff = 0
		pc.conn = conn
		pc.mu.Unlock()
		go t.readReplies(pc, conn)
		// Loop: the next pass finds the live conn and enqueues.
	}
}

// drain is the combining writer. Called with pc.mu held and the writing
// token owned; it releases the mutex around every syscall, batching whatever
// queued up behind the previous write into a single net.Buffers write, and
// returns (unlocked) once the queue is empty or the connection died. Frames
// that cannot be written are dropped — to the caller a broken connection is
// indistinguishable from a lost message, and the reply timeout covers it.
func (pc *peerConn) drain() {
	conn := pc.conn
	for {
		pc.batch, pc.queue = pc.queue, pc.batch[:0]
		batch := pc.batch
		pc.mu.Unlock()

		var err error
		if len(batch) == 1 {
			_, err = conn.Write(batch[0].Bytes())
		} else {
			pc.bufs = pc.bufs[:0]
			for _, fr := range batch {
				pc.bufs = append(pc.bufs, fr.Bytes())
			}
			_, err = pc.bufs.WriteTo(conn)
		}
		for i, fr := range batch {
			wire.PutEncoder(fr)
			batch[i] = nil
		}

		pc.mu.Lock()
		if err != nil || pc.conn != conn || pc.closed {
			if err != nil && pc.conn == conn {
				_ = conn.Close()
				pc.conn = nil
			}
			queue := pc.queue
			pc.queue = nil
			pc.writing = false
			pc.mu.Unlock()
			for _, fr := range queue {
				wire.PutEncoder(fr)
			}
			return
		}
		if len(pc.queue) == 0 {
			pc.writing = false
			pc.mu.Unlock()
			return
		}
	}
}

// maxRetainedReadBuf caps the frame buffer a connection's read loop keeps
// between frames: a one-off multi-megabyte payload must not pin its buffer
// for the connection's lifetime.
const maxRetainedReadBuf = 1 << 20

func (t *Transport) peerConnFor(to transport.NodeID) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if pc, ok := t.conns[to]; ok {
		return pc
	}
	p, ok := t.peers[to]
	if !ok {
		return nil
	}
	pc := &peerConn{peer: p}
	t.conns[to] = pc
	return pc
}

// readBufSize is each connection's bufio read buffer: big enough that a
// frame header and body (and, under load, several pipelined frames) arrive
// in one read syscall instead of two per frame.
const readBufSize = 32 << 10

// readReplies is the client-side pump: it matches reply frames to pending
// calls until the connection dies, then lets outstanding calls time out.
// The frame buffer is reused across replies; handleReply consumes each
// frame fully before the next read overwrites it.
func (t *Transport) readReplies(pc *peerConn, conn net.Conn) {
	br := bufio.NewReaderSize(conn, readBufSize)
	var buf []byte
	for {
		body, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			pc.mu.Lock()
			if pc.conn == conn {
				_ = conn.Close()
				pc.conn = nil
			}
			pc.mu.Unlock()
			return
		}
		buf = body
		t.handleReply(body)
		if cap(buf) > maxRetainedReadBuf {
			buf = nil
		}
	}
}

func (t *Transport) handleReply(body []byte) {
	d := wire.DecoderFor(body)
	if d.Uint8() != kindReply {
		return // protocol violation; drop
	}
	// Claim the call before decoding anything: most stragglers of a quorum
	// round find their caller gone, and their payload is dropped unread.
	v, ok := t.pending.LoadAndDelete(d.Uint64())
	if !ok {
		return // caller gave up (timeout or early quorum); drop the late reply
	}
	// The entry is ours now, so a result is owed whatever the payload holds:
	// the caller's timeout path, finding the entry gone, waits on ch for it.
	resp, rerr := decodeReply(&d)
	pc := v.(*pendingCall)
	r := transport.CallResult{From: pc.to, Resp: resp, Err: rerr}
	if pc.late != nil {
		// A straggler of a MulticastLate whose caller has returned. Removing
		// the entry above beat its deadline timer, so this is its one report.
		if tm := pc.timer.Load(); tm != nil {
			tm.Stop()
		}
		pc.late(r)
		return
	}
	ch := pc.ch
	pc.to, pc.ch = 0, nil
	pendingCallPool.Put(pc)
	// Never blocks: the caller sized ch for every id it mapped to it, and
	// removing the pending entry above made this the only send for this id.
	ch <- r
}

// decodeReply reads a reply frame's status and what it carries: a payload,
// or an error. A malformed frame is an error too. The payload view aliases
// the read buffer; Unmarshal's codecs copy whatever the decoded value
// keeps, so nothing outlives the frame.
func decodeReply(d *wire.Decoder) (any, error) {
	switch status := d.Uint8(); status {
	case statusOK:
		payload := d.RawBytesView()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("nettrans: reply decode: %w", err)
		}
		resp, err := wire.Unmarshal(payload)
		if err != nil {
			return nil, fmt.Errorf("nettrans: reply decode: %w", err)
		}
		return resp, nil
	case statusErr:
		return nil, &transport.RemoteError{Err: wire.DecodeError(d)}
	default:
		return nil, fmt.Errorf("nettrans: reply status %d unknown", status)
	}
}

// acceptLoop is the server side: every inbound connection gets its own
// request-serving goroutine. Connections are tracked in a map so serveConn
// can untrack them as they die — under reconnect churn the tracked set stays
// bounded by the number of live peers instead of growing monotonically.
func (t *Transport) acceptLoop() {
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			if t.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// serveConn reads call and one-way frames off one inbound connection. The
// frame header is parsed and the request payload decoded in the read loop,
// so the reused frame buffer is never shared with another goroutine. Where
// the handler runs depends on how it was registered:
//
//   - HandleInline: right here, on the read loop, reply included. The
//     handler promised never to wait, and readying another goroutine for
//     it costs more than the handler does.
//   - Handle / HandleWithCost: a goroutine of its own, because such a
//     handler may wait. A slow one must not head-of-line block the stream,
//     and one that waits on a request arriving on this same connection (a
//     handler that calls back to its caller) would deadlock it.
//
// Replies are written back on the same connection under a per-connection
// write lock.
func (t *Transport) serveConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var wmu sync.Mutex
	br := bufio.NewReaderSize(conn, readBufSize)
	var buf []byte
	for {
		body, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			return
		}
		buf = body
		d := wire.DecoderFor(body)
		kind := d.Uint8()
		id := d.Uint64()
		from := transport.NodeID(int32(d.Uint32()))
		svcView := d.StringView() // aliases buf; resolved to a stable string below
		payload := d.RawBytesView()
		if d.Err() != nil || (kind != kindCall && kind != kindOneway) {
			return // corrupt stream; drop the connection
		}
		var req any
		var herr error
		var svc string
		e, ok := t.handlerForBytes(svcView)
		if !ok {
			svc = string(svcView) // rare path; materialize for the error
			herr = fmt.Errorf("%w: %q on node %d", transport.ErrNoHandler, svc, t.self)
		} else {
			svc = e.name // the canonical registration-time string, no alloc
			if req, err = wire.Unmarshal(payload); err != nil {
				herr = fmt.Errorf("nettrans: %s request decode: %v", svc, err)
			}
		}
		if e.inline {
			t.serveRequest(conn, &wmu, kind, id, from, svc, e.fn, req, herr)
		} else {
			go t.serveRequest(conn, &wmu, kind, id, from, svc, e.fn, req, herr)
		}
		if cap(buf) > maxRetainedReadBuf {
			buf = nil
		}
	}
}

func (t *Transport) serveRequest(conn net.Conn, wmu *sync.Mutex, kind byte, id uint64, from transport.NodeID, svc string, h transport.Handler, req any, herr error) {
	var resp any
	if herr == nil {
		resp, herr = t.runHandler(from, svc, h, req)
	}
	if kind != kindCall {
		return
	}
	fr := wire.GetEncoder()
	if err := appendReplyFrame(fr, id, resp, herr); err != nil {
		// The handler returned an unregistered type; report that instead
		// of leaving the caller to time out.
		_ = appendReplyFrame(fr, id, nil, fmt.Errorf("nettrans: %s reply: %v", svc, err))
	}
	wmu.Lock()
	_, werr := conn.Write(fr.Bytes())
	wmu.Unlock()
	wire.PutEncoder(fr)
	if werr != nil {
		_ = conn.Close()
	}
}

// runHandler runs the registered handler on an already decoded request,
// mirroring simnet's handler semantics. Span setup (including the name
// concat) is gated on an enabled tracer so the disabled-obs serve path
// stays allocation-free.
func (t *Transport) runHandler(from transport.NodeID, svc string, h transport.Handler, req any) (any, error) {
	tr := t.obs.Tracer()
	if tr == nil {
		return h(from, req)
	}
	sp := tr.Detached(tr.Current().Context(), "serve:"+svc, t.rt.Now())
	sp.Annotatef("route", "n%d → n%d", from, t.self)
	resp, herr := h(from, req)
	sp.EndErr(herr)
	return resp, herr
}
