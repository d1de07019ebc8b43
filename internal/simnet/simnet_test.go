package simnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// echoMsg carries a payload size for bandwidth tests.
type echoMsg struct {
	Body string
	Size int
}

func (m echoMsg) WireSize() int { return m.Size }

// buildNet creates a 3-site network on a fresh virtual runtime.
func buildNet(t *testing.T, cfg Config) (*sim.Virtual, *Network) {
	t.Helper()
	return buildModel(t, cfg, testbed)
}

// Test models: the testbed without jitter, so a latency is exact, and
// without bandwidth either, so it is the profile's RTT alone.
var (
	noJitter = model{workers: cpuWorkers, bandwidth: nicBandwidth}
	rttOnly  = model{workers: cpuWorkers}
)

// buildModel is buildNet on a model other than the testbed.
func buildModel(t *testing.T, cfg Config, m model) (*sim.Virtual, *Network) {
	t.Helper()
	rt := sim.New(1)
	if cfg.Profile == nil {
		cfg.Profile = ProfileIUs
	}
	return rt, newNetwork(rt, cfg, m)
}

func registerEcho(n *Network) {
	for _, id := range n.Nodes() {
		n.Node(id).Handle("echo", func(from NodeID, req any) (any, error) {
			return req, nil
		})
	}
}

func TestProfileRTTs(t *testing.T) {
	tests := []struct {
		profile *Profile
		a, b    string
		want    time.Duration
	}{
		{Profile11, "ohio-a", "ohio-b", 200 * time.Microsecond},
		{Profile11, "ohio-a", "nvirginia", 15140 * time.Microsecond},
		{ProfileIUs, "ohio", "ncalifornia", 53790 * time.Microsecond},
		{ProfileIUs, "ohio", "oregon", 72140 * time.Microsecond},
		{ProfileIUs, "ncalifornia", "oregon", 24200 * time.Microsecond},
		{ProfileIUsEu, "ncalifornia", "frankfurt", 150740 * time.Microsecond},
		{ProfileIUs, "ohio", "ohio", 200 * time.Microsecond},
	}
	for _, tt := range tests {
		if got := tt.profile.RTT(tt.a, tt.b); got != tt.want {
			t.Errorf("%s RTT(%s,%s) = %v, want %v", tt.profile.Name(), tt.a, tt.b, got, tt.want)
		}
		if got := tt.profile.RTT(tt.b, tt.a); got != tt.want {
			t.Errorf("%s RTT symmetric (%s,%s) = %v, want %v", tt.profile.Name(), tt.b, tt.a, got, tt.want)
		}
	}
}

func TestProfileUnknownPairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown site pair")
		}
	}()
	ProfileIUs.RTT("ohio", "mars")
}

func TestCallRoundTripLatency(t *testing.T) {
	rt, n := buildModel(t, Config{}, rttOnly)
	registerEcho(n)
	err := rt.Run(func() {
		start := rt.Now()
		resp, err := n.Call(0, 1, "echo", "hi") // ohio -> ncalifornia
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if resp != "hi" {
			t.Errorf("resp = %v", resp)
		}
		rttWant := ProfileIUs.RTT("ohio", "ncalifornia")
		if got := rt.Now() - start; got != rttWant {
			t.Errorf("round trip = %v, want %v", got, rttWant)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCallSelfIsFast(t *testing.T) {
	rt, n := buildModel(t, Config{}, noJitter)
	registerEcho(n)
	err := rt.Run(func() {
		start := rt.Now()
		if _, err := n.Call(0, 0, "echo", "x"); err != nil {
			t.Errorf("Call: %v", err)
		}
		if got := rt.Now() - start; got > time.Millisecond {
			t.Errorf("loopback call took %v", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCallNoHandler(t *testing.T) {
	rt, n := buildNet(t, Config{})
	err := rt.Run(func() {
		_, err := n.Call(0, 1, "nope", "x")
		var re *RemoteError
		if !errors.As(err, &re) || !errors.Is(err, ErrNoHandler) {
			t.Errorf("err = %v, want RemoteError wrapping ErrNoHandler", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCallRemoteApplicationError(t *testing.T) {
	rt, n := buildNet(t, Config{})
	boom := errors.New("boom")
	n.Node(1).Handle("fail", func(from NodeID, req any) (any, error) {
		return nil, boom
	})
	err := rt.Run(func() {
		_, err := n.Call(0, 1, "fail", "x")
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want wrapped boom", err)
		}
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Errorf("err %v is not a RemoteError", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCallToCrashedNodeTimesOut(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	n.Crash(2)
	err := rt.Run(func() {
		start := rt.Now()
		_, err := n.CallTimeout(0, 2, "echo", "x", time.Second)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if got := rt.Now() - start; got != time.Second {
			t.Errorf("timed out after %v, want 1s", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCrashAndRestart(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	restarted := false
	n.Node(2).OnRestart(func() { restarted = true })
	err := rt.Run(func() {
		n.Crash(2)
		if _, err := n.CallTimeout(0, 2, "echo", "x", 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("call to crashed node: err = %v, want timeout", err)
		}
		n.Restart(2)
		if _, err := n.Call(0, 2, "echo", "x"); err != nil {
			t.Errorf("call after restart: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !restarted {
		t.Fatal("restart hook did not run")
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	err := rt.Run(func() {
		n.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
		if _, err := n.CallTimeout(0, 1, "echo", "x", 200*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("cross-partition call: err = %v, want timeout", err)
		}
		if _, err := n.Call(1, 2, "echo", "x"); err != nil {
			t.Errorf("same-partition call: %v", err)
		}
		n.Heal()
		if _, err := n.Call(0, 1, "echo", "x"); err != nil {
			t.Errorf("call after heal: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestIsolate(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	err := rt.Run(func() {
		n.Isolate(1)
		if _, err := n.CallTimeout(0, 1, "echo", "x", 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("call to isolated node: err = %v, want timeout", err)
		}
		if _, err := n.Call(0, 2, "echo", "x"); err != nil {
			t.Errorf("call between connected nodes: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLossRateDropsEverything(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	n.SetLossRate(1.0)
	err := rt.Run(func() {
		if _, err := n.CallTimeout(0, 1, "echo", "x", 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want timeout under full loss", err)
		}
		n.SetLossRate(0)
		if _, err := n.Call(0, 1, "echo", "x"); err != nil {
			t.Errorf("call after loss cleared: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBandwidthSerializationDelay(t *testing.T) {
	// 1 MB at 1 MB/s should add about a second each way.
	rt, n := buildModel(t, Config{}, model{workers: cpuWorkers, bandwidth: 1e6})
	registerEcho(n)
	err := rt.Run(func() {
		start := rt.Now()
		if _, err := n.CallTimeout(0, 1, "echo", echoMsg{Size: 1 << 20}, time.Minute); err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		elapsed := rt.Now() - start
		if elapsed < 2*time.Second || elapsed > 3*time.Second {
			t.Errorf("1MB echo at 1MB/s took %v, want ~2.1s", elapsed)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNICQueueingSharedAcrossMessages(t *testing.T) {
	// Two large sends from the same node must serialize on its NIC.
	rt, n := buildModel(t, Config{}, model{workers: cpuWorkers, bandwidth: 1e6})
	registerEcho(n)
	err := rt.Run(func() {
		done := sim.NewMailbox[time.Duration](rt)
		for i := 0; i < 2; i++ {
			rt.Go(func() {
				if _, err := n.CallTimeout(0, 1, "echo", echoMsg{Size: 1 << 20}, time.Minute); err != nil {
					t.Errorf("Call: %v", err)
				}
				done.Send(rt.Now())
			})
		}
		var last time.Duration
		for i := 0; i < 2; i++ {
			at, err := done.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if at > last {
				last = at
			}
		}
		// Second message waits ~1s behind the first on egress.
		if last < 3*time.Second {
			t.Errorf("second transfer finished at %v, want >3s due to NIC queueing", last)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestExecutorBoundsThroughput(t *testing.T) {
	// One worker, 10ms per op: 100 requests take about a second on the
	// destination regardless of client concurrency.
	rt, n := buildModel(t, Config{Profile: ProfileLocal}, model{workers: 1, bandwidth: nicBandwidth})
	n.Node(1).HandleWithCost("work", func(from NodeID, req any) (any, error) {
		return nil, nil
	}, 10*time.Millisecond, 0)
	err := rt.Run(func() {
		done := sim.NewMailbox[struct{}](rt)
		for i := 0; i < 100; i++ {
			rt.Go(func() {
				if _, err := n.CallTimeout(0, 1, "work", nil, time.Minute); err != nil {
					t.Errorf("Call: %v", err)
				}
				done.Send(struct{}{})
			})
		}
		for i := 0; i < 100; i++ {
			if _, err := done.Recv(); err != nil {
				t.Fatalf("Recv: %v", err)
			}
		}
		if rt.Now() < time.Second {
			t.Errorf("100 × 10ms ops on 1 worker finished in %v, want ≥1s", rt.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestExecutorParallelWorkers(t *testing.T) {
	rt, n := buildModel(t, Config{Profile: ProfileLocal}, noJitter)
	n.Node(1).HandleWithCost("work", func(from NodeID, req any) (any, error) {
		return nil, nil
	}, 10*time.Millisecond, 0)
	err := rt.Run(func() {
		done := sim.NewMailbox[struct{}](rt)
		for i := 0; i < 80; i++ {
			rt.Go(func() {
				if _, err := n.CallTimeout(0, 1, "work", nil, time.Minute); err != nil {
					t.Errorf("Call: %v", err)
				}
				done.Send(struct{}{})
			})
		}
		for i := 0; i < 80; i++ {
			if _, err := done.Recv(); err != nil {
				t.Fatalf("Recv: %v", err)
			}
		}
		// 80 ops / 8 workers = 10 serial slots of 10ms ≈ 100ms + RTTs.
		if rt.Now() > 200*time.Millisecond {
			t.Errorf("8-worker node took %v for 80 ops, want ~110ms", rt.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMulticastQuorum(t *testing.T) {
	rt, n := buildModel(t, Config{}, noJitter)
	registerEcho(n)
	err := rt.Run(func() {
		start := rt.Now()
		results := n.Multicast(0, []NodeID{0, 1, 2}, "echo", "q", 2, time.Second)
		if got := len(transport.Successes(results)); got < 2 {
			t.Errorf("successes = %d, want ≥2", got)
		}
		// Quorum of {self, ncal, oregon} from ohio: second-fastest is ncal
		// (RTT 53.79ms), so the call should return well before oregon's 72ms.
		if d := rt.Now() - start; d > 60*time.Millisecond {
			t.Errorf("quorum multicast took %v, want ≈54ms", d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMulticastWithCrashedTarget(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	n.Crash(2)
	err := rt.Run(func() {
		results := n.Multicast(0, []NodeID{0, 1, 2}, "echo", "q", 2, time.Second)
		if got := len(transport.Successes(results)); got != 2 {
			t.Errorf("successes = %d, want 2", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMulticastAllDownTimesOut(t *testing.T) {
	rt, n := buildNet(t, Config{})
	registerEcho(n)
	n.Crash(1)
	n.Crash(2)
	err := rt.Run(func() {
		start := rt.Now()
		results := n.Multicast(0, []NodeID{1, 2}, "echo", "q", 2, 300*time.Millisecond)
		if got := len(transport.Successes(results)); got != 0 {
			t.Errorf("successes = %d, want 0", got)
		}
		if d := rt.Now() - start; d < 300*time.Millisecond {
			t.Errorf("returned after %v, want full 300ms timeout", d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNodesAndSites(t *testing.T) {
	_, n := buildNet(t, Config{NodesPerSite: 3})
	if got := len(n.Nodes()); got != 9 {
		t.Fatalf("Nodes = %d, want 9", got)
	}
	if got := n.SiteOf(0); got != "ohio" {
		t.Errorf("SiteOf(0) = %q", got)
	}
	if got := n.SiteOf(8); got != "oregon" {
		t.Errorf("SiteOf(8) = %q", got)
	}
	if got := len(n.NodesInSite("ncalifornia")); got != 3 {
		t.Errorf("NodesInSite = %d, want 3", got)
	}
}

func TestSendOneWay(t *testing.T) {
	rt, n := buildNet(t, Config{})
	err := rt.Run(func() {
		got := sim.NewMailbox[any](rt)
		n.Node(1).Handle("cast", func(from NodeID, req any) (any, error) {
			got.Send(req)
			return nil, nil
		})
		n.Send(0, 1, "cast", "fire-and-forget")
		v, err := got.RecvTimeout(time.Second)
		if err != nil || v != "fire-and-forget" {
			t.Errorf("one-way message = (%v, %v)", v, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Message and multicast records are reused while a timed-out call's reply
// is still in flight: that reply holds its record until it settles, so no
// caller ever reads another's reply. Eight tasks race Call and Multicast
// over one network. First with a handler that sleeps past the timeout on
// every third request; then with an inline handler — a step, which cannot
// wait — whose requests queue instead for two CPU servers per node at 20 ms
// each.
func TestRecordReuseAfterTimeout(t *testing.T) {
	t.Run("handle", func(t *testing.T) {
		rt := sim.New(1)
		n := newNetwork(rt, Config{Profile: ProfileLocal}, noJitter)
		for _, id := range n.Nodes() {
			n.Node(id).Handle("echo", func(from NodeID, req any) (any, error) {
				if req.(int64)%3 == 0 {
					rt.Sleep(100 * time.Millisecond)
				}
				return req, nil
			})
		}
		raceCallers(t, rt, n)
	})
	t.Run("inline", func(t *testing.T) {
		rt := sim.New(1)
		n := newNetwork(rt, Config{Profile: ProfileLocal}, model{workers: 2, bandwidth: nicBandwidth})
		for _, id := range n.Nodes() {
			n.HandleInline(id, "echo", func(from NodeID, req any) (any, error) {
				return req, nil
			}, 20*time.Millisecond, 0)
		}
		raceCallers(t, rt, n)
	})
}

// raceCallers runs tasks issuing Call and Multicast to n's echo service
// with a 50 ms timeout, and checks every reply is the caller's own, and
// that some replies came in time and some did not. It then waits for the
// late replies to land, so each one settles inside the run.
func raceCallers(t *testing.T, rt *sim.Virtual, n *Network) {
	const callers, rounds, timeout = 8, 20, 50 * time.Millisecond
	var replies, late int
	err := rt.Run(func() {
		done := sim.NewMailbox[struct{}](rt)
		for c := 0; c < callers; c++ {
			rt.Go(func() {
				defer done.Send(struct{}{})
				for i := 0; i < rounds; i++ {
					req := int64(c*rounds + i)
					check := func(resp any, err error) {
						switch {
						case err == nil && resp != req:
							t.Errorf("request %d got reply %v", req, resp)
						case err == nil:
							replies++
						case errors.Is(err, ErrTimeout):
							late++
						default:
							t.Errorf("request %d: %v", req, err)
						}
					}
					if i%2 == 0 {
						check(n.CallTimeout(NodeID(c%3), NodeID((c+1)%3), "echo", req, timeout))
						continue
					}
					rs := n.Multicast(NodeID(c%3), n.Nodes(), "echo", req, 3, timeout)
					for _, r := range rs {
						check(r.Resp, r.Err)
					}
					late += 3 - len(rs)
				}
			})
		}
		for c := 0; c < callers; c++ {
			done.Recv()
		}
		rt.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if replies == 0 || late == 0 {
		t.Fatalf("%d replies in time, %d late; want some of each", replies, late)
	}
}

// A handler may keep the request it was handed, and a caller the reply,
// after the records that carried them have gone on to carry other
// messages: a decoded value shares no bytes with a record's encode
// buffers. The first request and reply are stashed, then 120 more calls
// and multicasts of the same sizes reuse the records, overwriting their
// buffers in place, and the stashes must be what was sent.
func TestDecodedValuesOutliveRecords(t *testing.T) {
	rt, n := buildNet(t, Config{})
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	var stashedReq []byte
	for _, id := range n.Nodes() {
		n.Node(id).Handle("stash", func(from NodeID, req any) (any, error) {
			b := req.([]byte)
			if stashedReq == nil {
				stashedReq = b
			}
			return string(fill(b[0] + 1)), nil
		})
	}
	err := rt.Run(func() {
		resp, err := n.Call(0, 1, "stash", fill(1))
		if err != nil {
			t.Fatalf("first call: %v", err)
		}
		stashedResp := resp.(string)
		for i := 0; i < 120; i++ {
			req := fill(byte(2 + i%100))
			if i%2 == 0 {
				_, err = n.Call(NodeID(i%3), NodeID((i+1)%3), "stash", req)
			} else {
				for _, r := range n.Multicast(NodeID(i%3), n.Nodes(), "stash", req, 3, time.Second) {
					err = errors.Join(err, r.Err)
				}
			}
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if !bytes.Equal(stashedReq, fill(1)) {
			t.Errorf("stashed request changed under reuse: %x", stashedReq)
		}
		if stashedResp != string(fill(2)) {
			t.Errorf("stashed reply changed under reuse: %x", stashedResp)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k := len(n.msgs.free); k == 0 || k > 8 {
		t.Fatalf("%d free message records after the run; want a few, reused", k)
	}
}
