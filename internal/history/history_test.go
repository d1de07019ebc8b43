package history

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	rt := sim.New(1)
	rec := New(rt)
	if rec == nil {
		t.Fatal("New returned a nil recorder")
	}
	err := rt.Run(func() {
		c := rec.Begin("site-a", KindPut, "k", 3).Value([]byte("v"), true).TS(42)
		rt.Sleep(5 * time.Millisecond)
		c.End(nil)
		c2 := rec.Begin("site-b", KindGet, "k", 3)
		rt.Sleep(time.Millisecond)
		c2.Value(nil, false).End(errors.New("boom"))
		rec.Event("site-a", KindFailover, "k", 3, "site-a->site-b")
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	if len(ops) != 3 || rec.Len() != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
	put := ops[0]
	if put.ID != 1 || put.Kind != KindPut || put.Site != "site-a" || put.Key != "k" || put.Ref != 3 {
		t.Fatalf("bad put op: %+v", put)
	}
	if put.Inv != 0 || put.Resp != 5*time.Millisecond || string(put.Value) != "v" || !put.Present || put.TS != 42 || put.Failed() {
		t.Fatalf("bad put op: %+v", put)
	}
	get := ops[1]
	if !get.Failed() || get.Err != "boom" || get.Present || get.Inv != 5*time.Millisecond || get.Resp != 6*time.Millisecond {
		t.Fatalf("bad get op: %+v", get)
	}
	ev := ops[2]
	if ev.Kind != KindFailover || ev.Inv != ev.Resp || ev.Note != "site-a->site-b" {
		t.Fatalf("bad event op: %+v", ev)
	}

	// The recorder copies value bytes at record time.
	rt2 := sim.New(2)
	rec2 := New(rt2)
	if err := rt2.Run(func() {
		buf := []byte("orig")
		rec2.Begin("s", KindPut, "k", 1).Value(buf, true).End(nil)
		copy(buf, "XXXX")
	}); err != nil {
		t.Fatal(err)
	}
	if got := string(rec2.Ops()[0].Value); got != "orig" {
		t.Fatalf("value aliased caller buffer: %q", got)
	}

	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("reset should clear ops")
	}
}

// TestNilRecorderZeroAlloc proves the disabled-recorder contract: the whole
// record chain on a nil *Recorder performs zero allocations, like a nil
// *obs.Obs.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	v := []byte("payload")
	allocs := testing.AllocsPerRun(100, func() {
		c := rec.Begin("site-a", KindPut, "key", 7)
		c.Value(v, true).TS(99).Synchronized(true).Note("n")
		c.End(nil)
		rec.Event("site-a", KindFailover, "key", 7, "x")
		_ = rec.Ops()
		_ = rec.Len()
		rec.Reset()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f times per op, want 0", allocs)
	}
}

func TestRenderAndStrings(t *testing.T) {
	ops := finish([]Op{
		withValue(mk(KindPut, 1, 10*us, 20*us), "a", 1010),
		mk(KindRelease, 1, 30*us, 40*us),
	})
	out := Render(ops)
	if !strings.Contains(out, "criticalPut") || !strings.Contains(out, `value="a"`) || !strings.Contains(out, "ts=1010") {
		t.Fatalf("render missing fields:\n%s", out)
	}
	for k := KindAcquire; k <= KindEpoch; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	fr := mk(KindForcedRelease, 2, 0, us)
	fr.Err = "nope"
	if s := fr.String(); !strings.Contains(s, `err="nope"`) {
		t.Fatalf("failed op render: %s", s)
	}
}
