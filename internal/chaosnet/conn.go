package chaosnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/nettrans"
	"repro/internal/wire"
)

// Dial returns a nettrans dial hook that interposes the injector on every
// outbound connection from the given site: dials across a partitioned pair
// are refused outright, and accepted connections are wrapped so every frame
// crossing them gets a verdict in each direction.
func (in *Injector) Dial(fromSite string) func(peer nettrans.Peer, timeout time.Duration) (net.Conn, error) {
	return func(peer nettrans.Peer, timeout time.Duration) (net.Conn, error) {
		if in.Partitioned(fromSite, peer.Site) {
			in.refused.Add(1)
			return nil, fmt.Errorf("chaosnet: %s↔%s partitioned", fromSite, peer.Site)
		}
		conn, err := net.DialTimeout("tcp", peer.Addr, timeout)
		if err != nil {
			return nil, err
		}
		return newFaultConn(in, conn, fromSite, peer.Site), nil
	}
}

// heldFrame is one complete wire frame held back for delayed delivery.
type heldFrame struct {
	buf     []byte
	release time.Duration // injector-elapsed instant it may be delivered
}

// faultConn wraps one TCP connection, applying frame verdicts in both
// directions. The write side reassembles wire frames from arbitrary Write
// boundaries (nettrans's combining writer coalesces several frames into one
// batched write, and a writev fallback may split them again), so every
// verdict covers exactly one protocol frame; delayed frames drain through a
// single writer goroutine in FIFO order, keeping Write itself non-blocking
// for nettrans's drain loop. The read side mirrors it: a reader goroutine
// judges each inbound frame as it comes off the socket and holds it until
// its own arrival plus its delay, so frames that arrive together are
// delivered together, in order, each one delay late.
type faultConn struct {
	net.Conn
	in       *Injector
	from, to string // this side dials from→to; reads carry to→from traffic

	mu    sync.Mutex
	cond  *sync.Cond // signals the writer: queue grew, or the conn died
	rcond *sync.Cond // signals Read: inbound grew, or the conn died
	queue []heldFrame
	inq   []heldFrame // judged inbound frames, oldest first
	wbuf  []byte      // write-side frame reassembly
	rbuf  []byte      // read-side bytes already cleared for delivery
	dead  bool
	derr  error
}

func newFaultConn(in *Injector, conn net.Conn, from, to string) *faultConn {
	fc := &faultConn{Conn: conn, in: in, from: from, to: to}
	fc.cond = sync.NewCond(&fc.mu)
	fc.rcond = sync.NewCond(&fc.mu)
	go fc.writer()
	go fc.reader()
	return fc
}

// fail marks the connection dead and tears the underlying socket down.
func (fc *faultConn) fail(err error) error {
	fc.mu.Lock()
	if !fc.dead {
		fc.dead = true
		fc.derr = err
		fc.queue, fc.inq = nil, nil
		fc.cond.Broadcast()
		fc.rcond.Broadcast()
	}
	err = fc.derr
	fc.mu.Unlock()
	_ = fc.Conn.Close()
	return err
}

// Close shuts the connection down and stops the writer and the reader.
func (fc *faultConn) Close() error {
	return fc.fail(net.ErrClosed)
}

// Write buffers b, slices complete frames out of the reassembly buffer, and
// gives each its verdict: dropped frames vanish (the write still reports
// success, like a lossy network), resets kill the connection, everything
// else queues for the writer goroutine at now+Delay.
func (fc *faultConn) Write(b []byte) (int, error) {
	fc.mu.Lock()
	if fc.dead {
		err := fc.derr
		fc.mu.Unlock()
		return 0, err
	}
	fc.wbuf = append(fc.wbuf, b...)
	var frames [][]byte
	for {
		frame, rest, ok := splitFrame(fc.wbuf)
		if !ok {
			break
		}
		frames = append(frames, frame)
		fc.wbuf = rest
	}
	fc.mu.Unlock()

	for _, frame := range frames {
		v := fc.in.Verdict(fc.from, fc.to, len(frame))
		switch {
		case v.Drop:
			continue
		case v.Reset:
			return 0, fc.fail(fmt.Errorf("chaosnet: injected reset %s→%s", fc.from, fc.to))
		}
		fc.mu.Lock()
		if fc.dead {
			err := fc.derr
			fc.mu.Unlock()
			return 0, err
		}
		fc.queue = append(fc.queue, heldFrame{buf: frame, release: fc.in.Elapsed() + v.Delay})
		fc.cond.Signal()
		fc.mu.Unlock()
	}
	return len(b), nil
}

// writer drains the delay queue in FIFO order onto the real socket.
func (fc *faultConn) writer() {
	for {
		fc.mu.Lock()
		for len(fc.queue) == 0 && !fc.dead {
			fc.cond.Wait()
		}
		if fc.dead {
			fc.mu.Unlock()
			return
		}
		item := fc.queue[0]
		fc.queue = fc.queue[1:]
		fc.mu.Unlock()
		if d := item.release - fc.in.Elapsed(); d > 0 {
			fc.in.rt.Sleep(d)
		}
		if _, err := fc.Conn.Write(item.buf); err != nil {
			fc.fail(err)
			return
		}
	}
}

// reader pulls inbound frames off the socket as they arrive, judges each,
// and queues the survivors for Read at their arrival plus their delay.
// Verdicts are drawn in frame order, as the write side draws them.
func (fc *faultConn) reader() {
	for {
		frame, err := wire.ReadFrame(fc.Conn)
		if err != nil {
			fc.fail(err)
			return
		}
		// Inbound traffic flows to→from.
		v := fc.in.Verdict(fc.to, fc.from, len(frame)+wire.FrameOverhead)
		switch {
		case v.Drop:
			continue
		case v.Reset:
			fc.fail(fmt.Errorf("chaosnet: injected reset %s→%s", fc.to, fc.from))
			return
		}
		fc.mu.Lock()
		if fc.dead {
			fc.mu.Unlock()
			return
		}
		fc.inq = append(fc.inq, heldFrame{buf: frame, release: fc.in.Elapsed() + v.Delay})
		fc.rcond.Signal()
		fc.mu.Unlock()
	}
}

// Read serves bytes from the cleared buffer, clearing the oldest judged
// inbound frame into it once its release time has come.
func (fc *faultConn) Read(b []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for {
		if len(fc.rbuf) > 0 {
			n := copy(b, fc.rbuf)
			fc.rbuf = fc.rbuf[n:]
			return n, nil
		}
		if fc.dead {
			return 0, fc.derr
		}
		if len(fc.inq) == 0 {
			fc.rcond.Wait()
			continue
		}
		if d := fc.inq[0].release - fc.in.Elapsed(); d > 0 {
			fc.mu.Unlock()
			fc.in.rt.Sleep(d)
			fc.mu.Lock()
			continue
		}
		fc.rbuf = wire.AppendFrame(fc.rbuf, fc.inq[0].buf)
		fc.inq[0] = heldFrame{}
		fc.inq = fc.inq[1:]
	}
}

// splitFrame slices one complete length-prefixed frame (header included)
// off the front of buf.
func splitFrame(buf []byte) (frame, rest []byte, ok bool) {
	if len(buf) < wire.FrameOverhead {
		return nil, buf, false
	}
	n := int(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
	total := wire.FrameOverhead + n
	if len(buf) < total {
		return nil, buf, false
	}
	frame = append([]byte(nil), buf[:total]...)
	return frame, buf[total:], true
}
