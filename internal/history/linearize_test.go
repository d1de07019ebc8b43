package history

import (
	"testing"
	"time"
)

// lin runs the WGL search on a single-key op slice.
func lin(t *testing.T, ops []Op) ([]Violation, bool) {
	t.Helper()
	kh := partition(finish(ops))["k"]
	if kh == nil {
		t.Fatal("no ops for key k")
	}
	return linearizeKey(kh, wglBudget)
}

func TestLinearizeSequential(t *testing.T) {
	vs, decided := lin(t, []Op{
		withValue(mk(KindPut, 1, 0, 10*us), "a", ts(1, 0)),
		withValue(mk(KindGet, 1, 20*us, 30*us), "a", 0),
		withValue(mk(KindPut, 1, 40*us, 50*us), "b", ts(1, 40)),
		withValue(mk(KindGet, 1, 60*us, 70*us), "b", 0),
	})
	if len(vs) != 0 || !decided {
		t.Fatalf("sequential history not linearizable: %v", vs)
	}
}

func TestLinearizeStaleRead(t *testing.T) {
	// Read of "a" strictly after write "b" completed: no linearization.
	vs, decided := lin(t, []Op{
		withValue(mk(KindPut, 1, 0, 10*us), "a", ts(1, 0)),
		withValue(mk(KindPut, 1, 20*us, 30*us), "b", ts(1, 20)),
		withValue(mk(KindGet, 1, 40*us, 50*us), "a", 0),
	})
	if !decided {
		t.Fatal("tiny history hit budget")
	}
	if len(vs) != 1 || vs[0].Rule != "linearizability" {
		t.Fatalf("stale read not flagged: %v", vs)
	}
	if len(vs[0].Ops) == 0 {
		t.Fatal("violation carries no ops")
	}
}

func TestLinearizeConcurrentWrites(t *testing.T) {
	// Two overlapping writes: either order is a valid linearization, so
	// reads may observe them in either sequence.
	vs, _ := lin(t, []Op{
		withValue(mk(KindPut, 1, 0, 100*us), "a", ts(1, 0)),
		withValue(mk(KindPut, 1, 0, 100*us), "b", ts(1, 1)),
		withValue(mk(KindGet, 1, 40*us, 50*us), "b", 0),
		withValue(mk(KindGet, 1, 120*us, 130*us), "b", 0),
	})
	if len(vs) != 0 {
		t.Fatalf("valid concurrent-write history flagged: %v", vs)
	}
}

func TestLinearizeFailedWriteSettlesLate(t *testing.T) {
	// A timed-out write may take effect long after its response — reading
	// it later is linearizable (the op's interval extends to infinity)...
	ok := []Op{
		withValue(mk(KindPut, 1, 0, 10*us), "a", ts(1, 0)),
		failed(withValue(mk(KindPut, 1, 20*us, 30*us), "b", ts(1, 20)), "store: timeout"),
		withValue(mk(KindGet, 1, 100*us, 110*us), "b", 0),
	}
	if vs, _ := lin(t, ok); len(vs) != 0 {
		t.Fatalf("late-settling failed write flagged: %v", vs)
	}
	// ...but it cannot explain a read of an older value after a newer one
	// was observed.
	bad := append(ok, withValue(mk(KindGet, 1, 120*us, 130*us), "a", 0))
	if vs, _ := lin(t, bad); len(vs) != 1 {
		t.Fatalf("a-after-b read not flagged: %v", vs)
	}
}

func TestLinearizeStaleWriteSkippable(t *testing.T) {
	// A write issued after its lockRef's forced release is committed but
	// masked by the next grant's synchronize; the search may skip it.
	fr := mk(KindForcedRelease, 1, 15*us, 20*us)
	fr.TS = tsForced(1)
	ops := []Op{
		withValue(mk(KindPut, 1, 0, 10*us), "a", ts(1, 0)),
		fr,
		withValue(mk(KindSync, 2, 22*us, 28*us), "a", ts(2, 0)),
		withValue(mk(KindPut, 1, 30*us, 40*us), "c", ts(1, 30)), // stale-issued, nobody reads it
		withValue(mk(KindGet, 2, 50*us, 60*us), "a", 0),
	}
	vs, decided := lin(t, ops)
	if len(vs) != 0 || !decided {
		t.Fatalf("masked stale write not skippable: %v", vs)
	}
}

func TestLinearizeBudget(t *testing.T) {
	// An adversarial all-concurrent history with an unsatisfiable read
	// forces the search to exhaust a tiny budget and report undecided.
	var ops []Op
	for i := 0; i < 16; i++ {
		ops = append(ops, withValue(mk(KindPut, 1, 0, 1000*us), string(rune('a'+i)), ts(1, int64(i))))
	}
	ops = append(ops, withValue(mk(KindGet, 1, 2000*us, 2100*us), "zzz", 0))
	kh := partition(finish(ops))["k"]
	if _, decided := linearizeKey(kh, 500); decided {
		t.Fatal("expected budget exhaustion on adversarial history")
	}
}

func TestLinearizeDeleteTombstone(t *testing.T) {
	del := mk(KindDelete, 1, 20*us, 30*us)
	del.TS = ts(1, 20)
	vs, _ := lin(t, []Op{
		withValue(mk(KindPut, 1, 0, 10*us), "a", ts(1, 0)),
		del,
		mk(KindGet, 1, 40*us, 50*us), // reads absent
	})
	if len(vs) != 0 {
		t.Fatalf("delete/absent-read history flagged: %v", vs)
	}
	_ = time.Microsecond
}
