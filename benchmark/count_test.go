package main

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
)

// countedTCP runs the transport conformance suite through the counting
// wrapper over real TCP transports — the transparency proof chaosnet.Wrap
// carries too: protocol code must not be able to tell the wrapper is there,
// reset recovery included.
type countedTCP struct {
	ts map[transport.NodeID]transport.Transport

	mu    sync.Mutex
	conns map[[2]transport.NodeID][]net.Conn
}

func (c *countedTCP) Transport(node transport.NodeID) transport.Transport { return c.ts[node] }
func (c *countedTCP) Run(t *testing.T, fn func())                         { fn() }
func (c *countedTCP) Close() {
	for _, tr := range c.ts {
		tr.Close()
	}
}

func (c *countedTCP) Disrupt(from, to transport.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range [][2]transport.NodeID{{from, to}, {to, from}} {
		for _, conn := range c.conns[key] {
			_ = conn.Close()
		}
		c.conns[key] = nil
	}
}

func newCountedTCP(t *testing.T, stats *layerStats) *countedTCP {
	t.Helper()
	rt := sim.NewReal(1)
	c := &countedTCP{
		ts:    make(map[transport.NodeID]transport.Transport),
		conns: make(map[[2]transport.NodeID][]net.Conn),
	}
	listeners := make([]net.Listener, len(tcpSites))
	peers := make([]nettrans.Peer, len(tcpSites))
	for i, site := range tcpSites {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = lis
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: lis.Addr().String()}
	}
	for i := range peers {
		self := transport.NodeID(i)
		tr, err := nettrans.New(rt, nettrans.Config{
			Self: self, Peers: peers, Listener: listeners[i], RPCTimeout: 2 * time.Second,
			Dial: func(peer nettrans.Peer, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", peer.Addr, timeout)
				if err != nil {
					return nil, err
				}
				c.mu.Lock()
				key := [2]transport.NodeID{self, peer.ID}
				c.conns[key] = append(c.conns[key], conn)
				c.mu.Unlock()
				return conn, nil
			},
		})
		if err != nil {
			t.Fatalf("nettrans.New: %v", err)
		}
		c.ts[self] = wrapCounting(tr, stats, rt.Now)
	}
	return c
}

func TestCountingWrapperConformanceTCP(t *testing.T) {
	stats := newLayerStats()
	conformance.Run(t, func(t *testing.T) conformance.Cluster { return newCountedTCP(t, stats) })
	if s := stats.snapshot(); s.calls == 0 || s.multicasts == 0 || s.sends == 0 || s.bytes == 0 {
		t.Errorf("the suite's traffic went uncounted: %+v", s)
	}
}

// countedSim is the same proof over the simulated network.
type countedSim struct {
	rt  *sim.Virtual
	net *simnet.Network
	tr  transport.Transport
}

func (c *countedSim) Transport(transport.NodeID) transport.Transport { return c.tr }
func (c *countedSim) Close()                                         {}
func (c *countedSim) Run(t *testing.T, fn func()) {
	t.Helper()
	if err := c.rt.Run(fn); err != nil {
		t.Fatalf("virtual run: %v", err)
	}
}

// Disrupt black-holes the fabric long enough to kill the in-flight exchange,
// as simnet's own conformance adapter does.
func (c *countedSim) Disrupt(from, to transport.NodeID) {
	c.net.SetLossRate(1)
	c.rt.Go(func() {
		c.rt.Sleep(600 * time.Millisecond)
		c.net.SetLossRate(0)
	})
}

func TestCountingWrapperConformanceSimnet(t *testing.T) {
	stats := newLayerStats()
	conformance.Run(t, func(t *testing.T) conformance.Cluster {
		rt := sim.New(1)
		n := simnet.New(rt, simnet.Config{Profile: simnet.ProfileLocal, Seed: 1})
		return &countedSim{rt: rt, net: n, tr: wrapCounting(n, stats, rt.Now)}
	})
	if s := stats.snapshot(); s.calls == 0 || s.multicasts == 0 || s.sends == 0 || s.bytes == 0 {
		t.Errorf("the suite's traffic went uncounted: %+v", s)
	}
}

// TestCountingBooksWhatCrossed pins the arithmetic: one call is one leg and
// one reply, a multicast is one leg per target, and handler time lands under
// the service that served it.
func TestCountingBooksWhatCrossed(t *testing.T) {
	stats := newLayerStats()
	rt := sim.New(1)
	n := simnet.New(rt, simnet.Config{Profile: simnet.ProfileLocal, Seed: 1})
	tr := wrapCounting(n, stats, rt.Now)
	for _, id := range n.Nodes() {
		tr.Handle(id, "t.echo", func(_ transport.NodeID, req any) (any, error) { return req, nil })
	}
	msg := conformance.Msg{Tag: "x", Body: make([]byte, 100)}
	err := rt.Run(func() {
		if _, err := tr.Call(0, 1, "t.echo", msg); err != nil {
			t.Errorf("call: %v", err)
		}
		if got := len(tr.Multicast(0, n.Nodes(), "t.echo", msg, 3, time.Second)); got != 3 {
			t.Errorf("multicast collected %d results, want 3", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := stats.snapshot()
	if s.calls != 1 || s.multicasts != 1 || s.legs != 4 || s.replies != 4 {
		t.Errorf("calls=%d multicasts=%d legs=%d replies=%d, want 1 1 4 4", s.calls, s.multicasts, s.legs, s.replies)
	}
	size, _ := encodedSize(msg, false)
	if want := int64(8 * size); s.bytes != want {
		t.Errorf("bytes=%d, want %d (4 requests + 4 replies of %d)", s.bytes, want, size)
	}
	if got := len(stats.serveTimes("t.echo")); got != 4 {
		t.Errorf("%d handler runs booked, want 4", got)
	}
	if got := len(stats.capturedMessages()); got != 6 {
		t.Errorf("captured %d encodings, want 6 (one request per invocation, every reply)", got)
	}
}
