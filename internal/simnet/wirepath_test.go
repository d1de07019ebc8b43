package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// codecMsg has a registered wire codec, so the network must move it through
// Marshal/Unmarshal rather than passing the Go value by reference.
type codecMsg struct {
	Tag  string
	Body []byte
}

func init() {
	wire.Register(901, "simnet.codecMsg",
		func(e *wire.Encoder, v codecMsg) {
			e.String(v.Tag)
			e.RawBytes(v.Body)
		},
		func(d *wire.Decoder) codecMsg {
			return codecMsg{Tag: d.String(), Body: d.RawBytes()}
		})
}

// TestRegisteredPayloadIsCopied verifies that a payload with a wire codec is
// encoded at the sender and decoded at the receiver: the handler sees an
// equal but distinct value, so mutating it cannot reach back into the
// caller's memory — the same isolation a process boundary gives.
func TestRegisteredPayloadIsCopied(t *testing.T) {
	rt, n := buildNet(t, Config{})
	sentBody := []byte{1, 2, 3}
	var gotReq codecMsg
	n.Node(1).Handle("copy", func(from NodeID, req any) (any, error) {
		gotReq = req.(codecMsg)
		gotReq.Body[0] = 99 // must not corrupt the sender's slice
		return codecMsg{Tag: "reply", Body: gotReq.Body}, nil
	})
	err := rt.Run(func() {
		resp, err := n.Call(0, 1, "copy", codecMsg{Tag: "req", Body: sentBody})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if sentBody[0] != 1 {
			t.Errorf("handler mutation reached the sender's slice: %v", sentBody)
		}
		got := resp.(codecMsg)
		if got.Tag != "reply" || !bytes.Equal(got.Body, []byte{99, 2, 3}) {
			t.Errorf("reply = %+v", got)
		}
		// The reply is decoded too: mutating it must not reach the handler's copy.
		got.Body[1] = 77
		if gotReq.Body[1] != 2 {
			t.Errorf("caller mutation reached the handler's slice: %v", gotReq.Body)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRegisteredPayloadChargedExactSize verifies that the bandwidth model
// charges the exact encoded byte count for codec-backed payloads rather than
// a Sizer guess: a 1 MiB body at 1 MB/s costs about a second each way.
func TestRegisteredPayloadChargedExactSize(t *testing.T) {
	rt, n := buildModel(t, Config{}, model{workers: cpuWorkers, bandwidth: 1e6})
	n.Node(1).Handle("sink", func(from NodeID, req any) (any, error) {
		return nil, nil
	})
	msg := codecMsg{Body: make([]byte, 1<<20)}
	data, err := wire.Marshal(msg)
	if err != nil || len(data) < 1<<20 {
		t.Fatalf("wire.Marshal: %d bytes, %v", len(data), err)
	}
	size := len(data)
	err = rt.Run(func() {
		start := rt.Now()
		if _, err := n.CallTimeout(0, 1, "sink", msg, time.Minute); err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		elapsed := rt.Now() - start
		// Request pays ~1.05s of serialization; the nil reply is cheap.
		want := time.Duration(float64(size+msgOverhead) / 1e6 * float64(time.Second))
		if elapsed < want || elapsed > want+200*time.Millisecond {
			t.Errorf("1MiB codec payload at 1MB/s took %v, want ≥%v", elapsed, want)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestMulticastDrainsStragglers checks that a quorum-satisfied Multicast
// returns at the second-fastest reply and that the straggler tasks finish
// cleanly afterwards: the virtual run ends with every task complete (a
// leaked task blocked on a mailbox would deadlock the runtime).
func TestMulticastDrainsStragglers(t *testing.T) {
	rt, n := buildModel(t, Config{}, rttOnly)
	served := 0
	for _, id := range n.Nodes() {
		n.Node(id).Handle("echo", func(from NodeID, req any) (any, error) {
			served++
			return req, nil
		})
	}
	var returned, drained time.Duration
	err := rt.Run(func() {
		results := n.Multicast(0, []NodeID{0, 1, 2}, "echo", "q", 2, time.Second)
		returned = rt.Now()
		if got := len(transport.Successes(results)); got < 2 {
			t.Errorf("successes = %d, want ≥2", got)
		}
		// Sleep past the slowest target (oregon, RTT 72.14ms) so its task has
		// delivered its straggler reply before the run ends.
		rt.Sleep(time.Second)
		drained = rt.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v (straggler task leaked?)", err)
	}
	if served != 3 {
		t.Errorf("served = %d, want all 3 targets handled", served)
	}
	// The caller came back at quorum (~54ms), not at the slowest reply.
	if returned > 60*time.Millisecond {
		t.Errorf("multicast returned at %v, want ≈54ms quorum time", returned)
	}
	if drained != returned+time.Second {
		t.Errorf("post-multicast sleep ended at %v, want %v", drained, returned+time.Second)
	}
}

// TestSendToMissingHandler: a one-way message to a node with no handler is
// dropped without constructing a reply or disturbing the caller.
func TestSendToMissingHandler(t *testing.T) {
	rt, n := buildNet(t, Config{})
	err := rt.Run(func() {
		n.Send(0, 1, "nobody-home", "x")
		rt.Sleep(time.Second) // let the message arrive and be discarded
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSendUnderPartition: one-way messages across a partition are dropped;
// after healing they flow again.
func TestSendUnderPartition(t *testing.T) {
	rt, n := buildNet(t, Config{})
	got := 0
	n.Node(1).Handle("cast", func(from NodeID, req any) (any, error) {
		got++
		return nil, nil
	})
	err := rt.Run(func() {
		n.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
		n.Send(0, 1, "cast", "lost")
		rt.Sleep(time.Second)
		if got != 0 {
			t.Errorf("message crossed a partition: got = %d", got)
		}
		n.Heal()
		n.Send(0, 1, "cast", "delivered")
		rt.Sleep(time.Second)
		if got != 1 {
			t.Errorf("after heal got = %d, want 1", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSendCrashMidFlight: the destination crashes while a one-way message is
// in flight; delivery is suppressed at arrival, and a message sent after
// restart is delivered.
func TestSendCrashMidFlight(t *testing.T) {
	rt, n := buildModel(t, Config{}, rttOnly)
	got := 0
	n.Node(1).Handle("cast", func(from NodeID, req any) (any, error) {
		got++
		return nil, nil
	})
	err := rt.Run(func() {
		n.Send(0, 1, "cast", "doomed") // one-way ohio -> ncalifornia, ~27ms
		rt.Sleep(5 * time.Millisecond)
		n.Crash(1) // crash while the message is still on the wire
		rt.Sleep(time.Second)
		if got != 0 {
			t.Errorf("message delivered to crashed node: got = %d", got)
		}
		n.Restart(1)
		n.Send(0, 1, "cast", "ok")
		rt.Sleep(time.Second)
		if got != 1 {
			t.Errorf("after restart got = %d, want 1", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
