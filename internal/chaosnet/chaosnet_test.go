package chaosnet_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/conformance"
)

var testSites = []string{"ohio", "ncalifornia", "oregon"}

// TestScheduleDeterminism is the replayability contract: the same seed
// yields the identical fault timeline, byte for byte, and two injectors
// presented with the same probe sequence on a virtual clock hand out the
// identical verdict stream.
func TestScheduleDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		a := chaosnet.Generate(seed, testSites)
		b := chaosnet.Generate(seed, testSites)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%s\n%s", seed, a, b)
		}
	}

	// Verdict-stream equality: replay the same probes at the same virtual
	// instants against two fresh injectors.
	stream := func(seed int64) []chaosnet.Verdict {
		v := sim.New(1)
		inj := chaosnet.NewInjector(v, chaosnet.Generate(seed, testSites))
		var out []chaosnet.Verdict
		if err := v.Run(func() {
			inj.Start()
			end := inj.Schedule().End() + 20*time.Millisecond
			for v.Now() < end {
				v.Sleep(5 * time.Millisecond)
				for _, from := range testSites {
					for _, to := range testSites {
						if from != to {
							out = append(out, inj.Verdict(from, to, 700))
						}
					}
				}
			}
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return out
	}
	for seed := int64(1); seed <= 25; seed++ {
		a, b := stream(seed), stream(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: verdict streams diverge over %d probes", seed, len(a))
		}
	}
}

// TestGenerateCoversClasses checks the generator draws every fault class
// across a modest seed range — the class-coverage premise of the campaign.
func TestGenerateCoversClasses(t *testing.T) {
	got := make(map[chaosnet.Class]int)
	for seed := int64(1); seed <= 100; seed++ {
		for c := range chaosnet.Generate(seed, testSites).Classes() {
			got[c]++
		}
	}
	for _, c := range []chaosnet.Class{chaosnet.ClassLatency, chaosnet.ClassBandwidth,
		chaosnet.ClassLoss, chaosnet.ClassPartition, chaosnet.ClassReset} {
		if got[c] == 0 {
			t.Errorf("class %s never drawn across 100 seeds", c)
		}
	}
	t.Logf("class coverage over 100 seeds: %v", got)
}

// twoNodes builds a two-process nettrans pair on loopback, with node 0's
// outbound dials going through the injector's hook.
func twoNodes(t *testing.T, inj *chaosnet.Injector) (*nettrans.Transport, *nettrans.Transport) {
	t.Helper()
	lis := make([]net.Listener, 2)
	peers := make([]nettrans.Peer, 2)
	sites := []string{"ohio", "oregon"}
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis[i] = l
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: sites[i], Addr: l.Addr().String()}
	}
	mk := func(i int, dial func(nettrans.Peer, time.Duration) (net.Conn, error)) *nettrans.Transport {
		tr, err := nettrans.New(sim.NewReal(int64(i)+1), nettrans.Config{
			Self: transport.NodeID(i), Peers: peers, Listener: lis[i],
			RPCTimeout:   time.Second,
			DialTimeout:  200 * time.Millisecond,
			BackoffFloor: 5 * time.Millisecond,
			BackoffCeil:  40 * time.Millisecond,
			Dial:         dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t0 := mk(0, inj.Dial("ohio"))
	t1 := mk(1, nil)
	t.Cleanup(func() { t0.Close(); t1.Close() })
	t1.Handle(1, "echo", func(from transport.NodeID, req any) (any, error) { return req, nil })
	return t0, t1
}

// TestFaultConnTransparent proves the frame-level wrapper is invisible with
// an empty schedule: calls, large payloads, and handler errors round-trip
// exactly as without it.
func TestFaultConnTransparent(t *testing.T) {
	rt := sim.NewReal(7)
	inj := chaosnet.NewInjector(rt, chaosnet.Schedule{Seed: 7, Sites: []string{"ohio", "oregon"}})
	inj.Start()
	t0, _ := twoNodes(t, inj)
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("m-%d", i)
		resp, err := t0.Call(0, 1, "echo", conformance.Msg{Tag: want, Body: make([]byte, 8<<10)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := resp.(conformance.Msg).Tag; got != want {
			t.Fatalf("call %d: got %q", i, got)
		}
	}
	if c := inj.Counts(); c.Drops+c.Resets+c.Delays+c.Refused != 0 {
		t.Fatalf("empty schedule injected faults: %+v", c)
	}
}

// TestFaultConnInjectsFaults runs calls through a loss+reset window and
// checks that (a) faults actually fire, surfacing as the retryable
// ErrTimeout, and (b) the transport recovers to clean calls once the
// schedule heals.
func TestFaultConnInjectsFaults(t *testing.T) {
	rt := sim.NewReal(7)
	sched := chaosnet.Schedule{
		Seed:  7,
		Sites: []string{"ohio", "oregon"},
		Events: []chaosnet.Event{
			{At: 0, For: 400 * time.Millisecond, Class: chaosnet.ClassLoss, Rate: 0.5},
			{At: 0, For: 400 * time.Millisecond, Class: chaosnet.ClassReset, Rate: 0.2},
		},
	}
	inj := chaosnet.NewInjector(rt, sched)
	t0, _ := twoNodes(t, inj)
	inj.Start()

	failures := 0
	for !inj.Done() {
		_, err := t0.CallTimeout(0, 1, "echo", conformance.Msg{Tag: "x"}, 60*time.Millisecond)
		if err != nil {
			failures++
			if !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("fault surfaced as %v, want ErrTimeout", err)
			}
		}
	}
	c := inj.Counts()
	if c.Drops == 0 && c.Resets == 0 {
		t.Fatalf("no faults fired during the window: %+v", c)
	}
	if failures == 0 {
		t.Fatal("every call succeeded through a 50% loss + 20% reset window")
	}

	// Healed: calls must succeed again (through redial backoff).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := t0.CallTimeout(0, 1, "echo", conformance.Msg{Tag: "after"}, 300*time.Millisecond); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transport never recovered after the fault window healed")
		}
	}
	t.Logf("window stats: %+v, %d/%d calls failed", c, failures, failures)
}

// TestFaultConnLatency checks injected latency actually delays calls.
func TestFaultConnLatency(t *testing.T) {
	rt := sim.NewReal(7)
	sched := chaosnet.Schedule{
		Seed:  7,
		Sites: []string{"ohio", "oregon"},
		Events: []chaosnet.Event{
			{At: 0, For: 10 * time.Second, Class: chaosnet.ClassLatency, Delay: 30 * time.Millisecond},
		},
	}
	inj := chaosnet.NewInjector(rt, sched)
	t0, _ := twoNodes(t, inj)
	inj.Start()
	start := time.Now()
	if _, err := t0.Call(0, 1, "echo", conformance.Msg{Tag: "slow"}); err != nil {
		t.Fatalf("call: %v", err)
	}
	// Request and reply each cross one injected 30ms leg.
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("call took %v through a 30ms-per-leg latency window", elapsed)
	}
}

// TestPartitionRefusesDials checks the dial hook gates on partitions and
// that the pair heals when the window ends.
func TestPartitionRefusesDials(t *testing.T) {
	rt := sim.NewReal(7)
	sched := chaosnet.Schedule{
		Seed:  7,
		Sites: []string{"ohio", "oregon"},
		Events: []chaosnet.Event{
			{At: 0, For: 300 * time.Millisecond, Class: chaosnet.ClassPartition, A: "ohio", B: "oregon"},
		},
	}
	inj := chaosnet.NewInjector(rt, sched)
	t0, _ := twoNodes(t, inj)
	inj.Start()
	if _, err := t0.CallTimeout(0, 1, "echo", conformance.Msg{}, 100*time.Millisecond); err == nil {
		t.Fatal("call across a partition succeeded")
	}
	if inj.Counts().Refused == 0 {
		t.Fatal("partitioned dial was not refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := t0.CallTimeout(0, 1, "echo", conformance.Msg{}, 300*time.Millisecond); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pair never healed after the partition window")
		}
	}
}
