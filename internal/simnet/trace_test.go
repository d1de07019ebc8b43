package simnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// findSpans walks a span tree collecting every node with the given name.
func findSpans(roots []*obs.SpanNode, name string) []*obs.SpanNode {
	var out []*obs.SpanNode
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Span.Name == name {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// TestTracedCallSpanTree drives one traced RPC and checks the emitted span
// tree: rpc:echo under the root, with transit legs and a serve span under
// the rpc, all consistent with the modeled delays.
func TestTracedCallSpanTree(t *testing.T) {
	rt := sim.New(1)
	o := obs.New(rt)
	n := New(rt, Config{Profile: ProfileIUs, Obs: o})
	registerEcho(n)

	var root *obs.Span
	err := rt.Run(func() {
		root = o.Tracer().StartRoot("op")
		if _, err := n.Call(0, 1, "echo", echoMsg{Body: "hi", Size: 4096}); err != nil {
			t.Errorf("Call: %v", err)
		}
		root.End()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	roots := o.Tracer().Trace(root.Trace)
	if len(roots) != 1 {
		t.Fatalf("want one root, got %d", len(roots))
	}
	rpcs := findSpans(roots, "rpc:echo")
	if len(rpcs) != 1 {
		t.Fatalf("want one rpc:echo span, got %d", len(rpcs))
	}
	rpc := rpcs[0]
	if rpc.Span.Failed {
		t.Errorf("rpc span failed: %+v", rpc.Span)
	}
	transits := findSpans([]*obs.SpanNode{rpc}, "net.transit")
	if len(transits) != 2 {
		t.Fatalf("want request+reply transit spans, got %d", len(transits))
	}
	if len(findSpans([]*obs.SpanNode{rpc}, "net.nic")) == 0 {
		t.Error("no net.nic span for a 4KB payload")
	}
	serves := findSpans([]*obs.SpanNode{rpc}, "serve:echo")
	if len(serves) != 1 {
		t.Fatalf("want one serve span, got %d", len(serves))
	}
	oneWay := ProfileIUs.OneWay("ohio", "ncalifornia")
	if d := transits[0].Span.Finish - transits[0].Span.Start; d < oneWay {
		t.Errorf("request transit %v shorter than one-way latency %v", d, oneWay)
	}

	// The RPC must also land in the latency histogram.
	var text strings.Builder
	o.Metrics().WriteText(&text)
	if !strings.Contains(text.String(), `simnet_rpc_latency_count{site="ohio",svc="echo"} 1`) {
		t.Errorf("rpc latency metric missing:\n%s", text.String())
	}
}

// TestTracedCallToCrashedNodeFailsSpan is the crash-path regression test: a
// traced Call into a node that crashes mid-flight must terminate (via the
// RPC timeout) and its span must be closed and marked failed — never left
// open or hanging.
func TestTracedCallToCrashedNodeFailsSpan(t *testing.T) {
	rt := sim.New(1)
	o := obs.New(rt)
	n := New(rt, Config{Profile: ProfileIUs, Obs: o})
	registerEcho(n)

	var root *obs.Span
	err := rt.Run(func() {
		root = o.Tracer().StartRoot("op")
		n.Crash(1)
		start := rt.Now()
		_, callErr := n.Call(0, 1, "echo", "hi")
		if !errors.Is(callErr, ErrTimeout) {
			t.Errorf("Call to crashed node: err = %v, want timeout", callErr)
		}
		if rt.Now()-start != rpcTimeout {
			t.Errorf("call terminated after %v, want exactly the %v timeout", rt.Now()-start, rpcTimeout)
		}
		root.End()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	rpcs := findSpans(o.Tracer().Trace(root.Trace), "rpc:echo")
	if len(rpcs) != 1 {
		t.Fatalf("want one rpc span, got %d", len(rpcs))
	}
	s := rpcs[0].Span
	if !s.Failed || !strings.Contains(s.Err, "timeout") {
		t.Errorf("rpc span into crashed node not marked failed: %+v", s)
	}
	if s.Finish == 0 {
		t.Error("rpc span never closed")
	}
}

// TestTracedCallCrashAfterDelivery covers the other drop point: the target
// crashes after the request is in flight but before the reply returns (the
// post-admit isUp check / reply transit drop). The caller must still
// terminate with a failed span.
func TestTracedCallCrashAfterDelivery(t *testing.T) {
	rt := sim.New(1)
	o := obs.New(rt)
	n := New(rt, Config{Profile: ProfileIUs, Obs: o})
	// Handler crashes its own node, so the reply leg must be dropped.
	n.Node(1).Handle("boom", func(from NodeID, req any) (any, error) {
		n.Crash(1)
		return "never delivered", nil
	})

	var root *obs.Span
	err := rt.Run(func() {
		root = o.Tracer().StartRoot("op")
		_, callErr := n.Call(0, 1, "boom", "hi")
		if !errors.Is(callErr, ErrTimeout) {
			t.Errorf("err = %v, want timeout", callErr)
		}
		root.End()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rpcs := findSpans(o.Tracer().Trace(root.Trace), "rpc:boom")
	if len(rpcs) != 1 || !rpcs[0].Span.Failed {
		t.Fatalf("rpc span not failed after mid-flight crash: %+v", rpcs)
	}
}

// TestMulticastUmbrellaSpan checks the fan-out grouping: per-target rpc
// spans nest under one multicast span.
func TestMulticastUmbrellaSpan(t *testing.T) {
	rt := sim.New(1)
	o := obs.New(rt)
	n := New(rt, Config{Profile: ProfileIUs, Obs: o})
	registerEcho(n)

	var root *obs.Span
	err := rt.Run(func() {
		root = o.Tracer().StartRoot("op")
		res := n.Multicast(0, []NodeID{1, 2}, "echo", "hi", 2, time.Second)
		if len(transport.Successes(res)) != 2 {
			t.Errorf("multicast successes = %d, want 2", len(transport.Successes(res)))
		}
		root.End()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	roots := o.Tracer().Trace(root.Trace)
	mcs := findSpans(roots, "multicast:echo")
	if len(mcs) != 1 {
		t.Fatalf("want one multicast span, got %d", len(mcs))
	}
	if got := len(findSpans(mcs, "rpc:echo")); got != 2 {
		t.Errorf("rpc spans under multicast = %d, want 2", got)
	}
}

// TestUntracedCallEmitsNoSpans: with obs enabled but no active trace, RPCs
// record metrics only — no spans (mid-stack instrumentation never roots).
func TestUntracedCallEmitsNoSpans(t *testing.T) {
	rt := sim.New(1)
	o := obs.New(rt)
	n := New(rt, Config{Profile: ProfileIUs, Obs: o})
	registerEcho(n)
	err := rt.Run(func() {
		if _, err := n.Call(0, 1, "echo", "hi"); err != nil {
			t.Errorf("Call: %v", err)
		}
		n.Multicast(0, []NodeID{1, 2}, "echo", "hi", 2, time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ids := o.Tracer().TraceIDs(0); len(ids) != 0 {
		t.Fatalf("untraced traffic created traces: %v", ids)
	}
}
