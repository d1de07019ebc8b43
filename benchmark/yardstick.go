package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// its speed moves by a third within seconds and stays moved for minutes:
// ten runs of one commit spread 20–35 % between their quartiles whatever is
// done inside a run (README, "How steady it is"). So wall and CPU time are
// not reported as the host's clock counted them but on a reference clock:
// every 50 ms the run stops, times a fixed piece of work of the program's
// own kind — the yardstick — and from then until the next stop every
// microsecond counts as refCallMicros ÷ (what one yardstick call just took).
// A host that is a third slower for a while makes the yardstick a third
// slower too, and the two cancel; a change to the program does not touch the
// yardstick, and shows in full.

// refCallMicros defines the reference host: the one on which a yardstick
// call takes this long. It is about what the build host does on a calm
// minute, so reference microseconds read like that host's own.
const refCallMicros = 30.0

const (
	// burstCalls yardstick calls are timed per stop, and their median taken.
	burstCalls = 40
	// burstEvery is the wall time between two stops: a stop is about 1.5 ms,
	// so 3 % of a run goes to the yardstick.
	burstEvery = 50 * time.Millisecond
	// yardstickBytes is the payload of one call, tcp_held's value size.
	yardstickBytes = 1024
	// yardstickRows bounds the tables the yardstick's servers keep.
	yardstickRows = 512
)

// yardstick is the fixed work the reference clock is calibrated against: a
// write of a 1 KiB frame to three servers on loopback TCP, each of which
// reads it, copies it into a table under a formatted key and acknowledges,
// and a wait for all three acknowledgements — the shape of a quorum write
// in the program: syscalls, goroutine hand-offs, allocation, a map. What it
// does must never change: every wall-clock number of every later run is in
// units of it.
type yardstick struct {
	listeners []net.Listener
	conns     []net.Conn
	acks      chan uint32
	gone      chan struct{} // closed when a connection ends, so a call cannot wait for ever
	goneOnce  sync.Once
	payload   []byte
	seq       uint32
	wg        sync.WaitGroup
}

func newYardstick() (*yardstick, error) {
	y := &yardstick{acks: make(chan uint32, 16), gone: make(chan struct{}), payload: make([]byte, yardstickBytes)}
	for i := 0; i < 3; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			y.close()
			return nil, fmt.Errorf("yardstick: %w", err)
		}
		y.listeners = append(y.listeners, lis)
		y.wg.Add(1)
		go y.serve(lis)
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			y.close()
			return nil, fmt.Errorf("yardstick: %w", err)
		}
		y.conns = append(y.conns, conn)
		y.wg.Add(1)
		go y.collect(conn)
	}
	return y, nil
}

// serve is one server: it accepts the one connection and answers frames
// until the connection closes.
func (y *yardstick) serve(lis net.Listener) {
	defer y.wg.Done()
	conn, err := lis.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	table := make(map[string][]byte)
	head := make([]byte, 8)
	for {
		if _, err := io.ReadFull(conn, head); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(head[4:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		table[fmt.Sprintf("row-%d", binary.BigEndian.Uint32(head)%yardstickRows)] = body
		if _, err := conn.Write(head[:4]); err != nil {
			return
		}
	}
}

// collect forwards one server's acknowledgements to the caller.
func (y *yardstick) collect(conn net.Conn) {
	defer y.wg.Done()
	ack := make([]byte, 4)
	for {
		if _, err := io.ReadFull(conn, ack); err != nil {
			y.goneOnce.Do(func() { close(y.gone) })
			return
		}
		y.acks <- binary.BigEndian.Uint32(ack)
	}
}

// call is one unit of the fixed work.
func (y *yardstick) call() error {
	y.seq++
	frame := make([]byte, 8+len(y.payload))
	binary.BigEndian.PutUint32(frame, y.seq)
	binary.BigEndian.PutUint32(frame[4:], uint32(len(y.payload)))
	copy(frame[8:], y.payload)
	for _, conn := range y.conns {
		if _, err := conn.Write(frame); err != nil {
			return fmt.Errorf("yardstick: %w", err)
		}
	}
	for range y.conns {
		select {
		case <-y.acks:
		case <-y.gone:
			return errors.New("yardstick: a server went away")
		}
	}
	return nil
}

// close stops the servers and waits for every goroutine to end.
func (y *yardstick) close() {
	for _, conn := range y.conns {
		conn.Close()
	}
	for _, lis := range y.listeners {
		lis.Close()
	}
	y.wg.Wait()
}

// epoch is the reference clock between two stops: a linear map from the
// host's wall clock, fixed at the stop that opened it.
type epoch struct {
	wall  time.Duration // host time since the clock was made, at the epoch's start
	ref   time.Duration // reference time at that moment
	scale float64       // reference time per host time; 0 while the yardstick runs
}

// refClock turns the host's wall and CPU time into reference time.
type refClock struct {
	y     *yardstick
	start time.Time
	cur   atomic.Pointer[epoch]

	mu      sync.Mutex // the state of tick
	due     time.Duration
	cpuHost time.Duration // process CPU at the end of the last stop
	cpuRef  time.Duration // reference CPU up to there, the yardstick's own left out
	calls   []float64     // the median yardstick call of every stop, µs
}

// newRefClock builds the yardstick and takes the first reading.
func newRefClock() (*refClock, error) {
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	r := &refClock{y: y, start: time.Now(), cpuHost: processCPU()}
	r.cur.Store(&epoch{scale: 1})
	// Connections, buffers and tables warm up before the first reading counts.
	for i := 0; i < 5*burstCalls; i++ {
		if err := y.call(); err != nil {
			r.close()
			return nil, err
		}
	}
	r.tick()
	return r, nil
}

func (r *refClock) close() { r.y.close() }

func (r *refClock) host() time.Duration { return time.Since(r.start) }

func (e *epoch) at(host time.Duration) time.Duration {
	return e.ref + time.Duration(float64(host-e.wall)*e.scale)
}

// Now is the reference time since the clock was made. It stands still while
// the yardstick runs. Any goroutine may call it.
func (r *refClock) Now() time.Duration { return r.cur.Load().at(r.host()) }

// CPU is the process's user+system CPU in reference time, not counting what
// the yardstick burned.
func (r *refClock) CPU() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cpuRef + time.Duration(float64(processCPU()-r.cpuHost)*r.cur.Load().scale)
}

// tick stops for a yardstick reading when one is due. The loops that drive
// the program call it between two operations, never inside a timed one.
func (r *refClock) tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	t0 := r.host()
	if t0 < r.due {
		return
	}
	old := r.cur.Load()
	frozen := &epoch{wall: t0, ref: old.at(t0)}
	r.cur.Store(frozen)
	r.cpuRef += time.Duration(float64(processCPU()-r.cpuHost) * old.scale)

	took := make([]float64, burstCalls)
	for i := range took {
		c0 := time.Now()
		if err := r.y.call(); err != nil {
			panic(fmt.Sprintf("benchmark: %v", err)) // its own loopback sockets: nothing a run can recover from
		}
		took[i] = float64(time.Since(c0)) / float64(time.Microsecond)
	}
	call := median(took)
	r.calls = append(r.calls, call)

	t1 := r.host()
	r.cpuHost = processCPU()
	r.cur.Store(&epoch{wall: t1, ref: frozen.ref, scale: refCallMicros / call})
	r.due = t1 + burstEvery
}

// yardstickMicros is the median yardstick call over every stop so far: how
// fast the host was, for the record.
func (r *refClock) yardstickMicros() (call float64, stops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.calls), len(r.calls)
}
