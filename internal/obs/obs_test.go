package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDisabledPathZeroAlloc proves the core claim: with observability off
// (nil receivers everywhere) the instrumented hot paths allocate nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var o *Obs
	tr := o.Tracer()
	reg := o.Metrics()
	if tr != nil || reg != nil {
		t.Fatal("nil Obs must yield nil halves")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Start("op")
		s.Annotate("k", "v")
		s.EndErr(nil)
		tr.SpanAt(s.Context(), "sub", 0, 0)
		c := reg.Counter("x", nil)
		c.Inc()
		c.Add(3)
		reg.Gauge("g", nil).Set(7)
		reg.Histogram("h", nil).Observe(time.Millisecond)
		_ = tr.Current()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %v times per run, want 0", allocs)
	}
}

func TestMetricsRegistry(t *testing.T) {
	rt := sim.NewReal(1)
	o := New(rt)
	reg := o.Metrics()

	c := reg.Counter("rpc_total", Labels{"site": "IE", "svc": "store.apply"})
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same counter.
	reg.Counter("rpc_total", Labels{"svc": "store.apply", "site": "IE"}).Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter after re-lookup = %d, want 6", got)
	}

	g := reg.Gauge("queue_depth", nil)
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	h := reg.Histogram("lat", Labels{"op": "put"})
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	snap := h.Snapshot()
	if snap.N() != 2 || snap.Mean() != 3*time.Millisecond {
		t.Fatalf("histogram n=%d mean=%v, want 2 / 3ms", snap.N(), snap.Mean())
	}

	var b strings.Builder
	reg.WriteText(&b)
	text := b.String()
	for _, want := range []string{
		`rpc_total{site="IE",svc="store.apply"} 6`,
		"queue_depth 7",
		`lat_count{op="put"} 2`,
		`lat_mean_us{op="put"} 3000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestTracerVirtualTime drives a small span tree under virtual time and
// checks parentage, durations, per-name stats and the rendered tree.
func TestTracerVirtualTime(t *testing.T) {
	rt := sim.New(1)
	tr := newTracer(rt, 16)
	err := rt.Run(func() {
		root := tr.StartRoot("op.outer")
		if tr.Current() != root {
			t.Error("root not installed as task-current")
		}
		rt.Sleep(time.Millisecond)

		child := tr.Start("op.inner")
		if child.Parent != root.ID || child.Trace != root.Trace {
			t.Errorf("child parentage wrong: %+v", child)
		}
		rt.Sleep(2 * time.Millisecond)
		tr.SpanAt(child.Context(), "op.leaf", child.Start, child.Start+time.Millisecond)
		child.End()
		if tr.Current() != root {
			t.Error("End did not restore the previous task-current span")
		}
		rt.Sleep(time.Millisecond)
		root.End()
		if tr.Current() != nil {
			t.Error("ending the root left a task-current span")
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	ids := tr.TraceIDs(0)
	if len(ids) != 1 {
		t.Fatalf("TraceIDs = %v, want one trace", ids)
	}
	roots := tr.Trace(ids[0])
	if len(roots) != 1 || roots[0].Span.Name != "op.outer" {
		t.Fatalf("trace roots = %+v", roots)
	}
	if d := roots[0].Span.Finish - roots[0].Span.Start; d != 4*time.Millisecond {
		t.Errorf("outer duration = %v, want 4ms", d)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Span.Name != "op.inner" {
		t.Fatalf("outer children = %+v", roots[0].Children)
	}
	inner := roots[0].Children[0]
	if len(inner.Children) != 1 || inner.Children[0].Span.Name != "op.leaf" {
		t.Fatalf("inner children = %+v", inner.Children)
	}

	byName := map[string]NameStat{}
	for _, ns := range tr.StatsByName() {
		byName[ns.Name] = ns
	}
	if byName["op.inner"].Mean != 2*time.Millisecond {
		t.Errorf("op.inner mean = %v, want 2ms", byName["op.inner"].Mean)
	}

	var b strings.Builder
	tr.WriteTree(&b, ids[0])
	tree := b.String()
	for _, want := range []string{"op.outer", "  op.inner", "    op.leaf"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestSpanInheritanceAcrossGo checks that a task spawned with rt.Go inherits
// the spawner's current span, so child work lands in the right trace.
func TestSpanInheritanceAcrossGo(t *testing.T) {
	rt := sim.New(1)
	var o *Obs
	err := rt.Run(func() {
		o = New(rt)
		tr := o.Tracer()
		root := tr.StartRoot("parent")
		done := sim.NewPromise[struct{}](rt)
		rt.Go(func() {
			child := tr.Start("spawned")
			if child.Trace != root.Trace || child.Parent != root.ID {
				t.Errorf("spawned task span not parented under root: %+v", child)
			}
			child.End()
			done.Resolve(struct{}{})
		})
		done.Await()
		root.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(o.Tracer().TraceIDs(0)); n != 1 {
		t.Fatalf("expected a single trace, got %d", n)
	}
}

// TestDetachedAndFailed covers the RPC-shaped spans: detached children that
// are never installed, and failure marking.
func TestDetachedAndFailed(t *testing.T) {
	rt := sim.New(1)
	err := rt.Run(func() {
		o := New(rt)
		tr := o.Tracer()
		root := tr.StartRoot("caller")
		d := tr.Detached(root.Context(), "rpc:thing", rt.Now())
		if tr.Current() != root {
			t.Error("Detached must not install itself")
		}
		rt.Sleep(time.Millisecond)
		d.EndErr(sim.ErrTimeout)
		root.End()

		roots := tr.Trace(root.Trace)
		if len(roots) != 1 || len(roots[0].Children) != 1 {
			t.Fatalf("tree shape wrong: %+v", roots)
		}
		rpc := roots[0].Children[0].Span
		if !rpc.Failed || !strings.Contains(rpc.Err, "timeout") {
			t.Errorf("rpc span not marked failed: %+v", rpc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRingEviction verifies StatsByName survives ring wraparound.
func TestRingEviction(t *testing.T) {
	rt := sim.NewReal(1)
	tr := newTracer(rt, 4)
	for i := 0; i < 10; i++ {
		tr.StartRoot("op").End()
	}
	if n := len(tr.snapshot()); n != 4 {
		t.Fatalf("ring holds %d spans, want 4", n)
	}
	st := tr.StatsByName()
	if len(st) != 1 || st[0].Count != 10 {
		t.Fatalf("StatsByName = %+v, want op count 10", st)
	}
}

func TestRealRuntimeTaskLocals(t *testing.T) {
	rt := sim.NewReal(1)
	tr := New(rt).Tracer()
	root := tr.StartRoot("real.root")
	done := make(chan *Span, 1)
	rt.Go(func() {
		c := tr.Start("real.child")
		c.End()
		done <- c
	})
	c := <-done
	if c.Trace != root.Trace || c.Parent != root.ID {
		t.Fatalf("goroutine did not inherit span context: %+v", c)
	}
	root.End()
	if tr.Current() != nil {
		t.Fatal("root End left a task-current span on the real runtime")
	}
}
