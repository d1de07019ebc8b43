package history

import (
	"strings"
	"testing"
	"time"
)

const us = time.Microsecond

// mk builds a successful op on key "k" with the given interval.
func mk(kind Kind, ref int64, inv, resp time.Duration) Op {
	return Op{Kind: kind, Key: "k", Ref: ref, Site: "site-a", Inv: inv, Resp: resp}
}

func withValue(o Op, v string, ts int64) Op {
	o.Value, o.Present, o.TS = []byte(v), true, ts
	return o
}

func failed(o Op, msg string) Op {
	o.Err = msg
	return o
}

// finish numbers ops in slice order, mirroring Recorder completion ids.
func finish(ops []Op) []Op {
	for i := range ops {
		ops[i].ID = uint64(i + 1)
	}
	return ops
}

// ts models v2s stamps for tests: lockRef windows of 1000 with the forced
// δ mark at the window top.
func ts(ref int64, elapsed int64) int64 { return 1000*ref + elapsed }
func tsForced(ref int64) int64          { return 1000*ref + 999 }

func rules(vs []Violation) string {
	var names []string
	for _, v := range vs {
		names = append(names, v.Rule)
	}
	return strings.Join(names, ",")
}

// TestECFCleanHistory: a correct two-section run (grant, synchronize, writes,
// reads, clean release, next grant) produces no violations.
func TestECFCleanHistory(t *testing.T) {
	g1 := mk(KindAcquire, 1, 0, 10*us)
	g1.Synchronized = true
	sync1 := mk(KindSync, 1, 2*us, 8*us)
	sync1.TS = ts(1, 0) // rewrote the absent initial value
	ops := finish([]Op{
		g1,
		sync1,
		withValue(mk(KindPut, 1, 20*us, 30*us), "a", ts(1, 20)),
		withValue(mk(KindGet, 1, 40*us, 50*us), "a", 0),
		mk(KindRelease, 1, 60*us, 70*us),
		withValue(mk(KindAcquire, 2, 80*us, 90*us), "a", 0), // seeded grant, flag clean
		withValue(mk(KindGet, 2, 100*us, 110*us), "a", 0),
		withValue(mk(KindPut, 2, 120*us, 130*us), "b", ts(2, 40)),
		withValue(mk(KindGet, 2, 140*us, 150*us), "b", 0),
		mk(KindRelease, 2, 160*us, 170*us),
	})
	res := Check(ops, CheckOptions{})
	if !res.Ok() {
		t.Fatalf("clean history flagged: %s\n%s", rules(res.Violations), Render(ops))
	}
	if res.Keys != 1 || res.Ops != len(ops) {
		t.Fatalf("bad accounting: %+v", res)
	}
}

// TestECFStaleLockRefWriteSurviving is the checker's own regression test: a
// deliberately broken history in which a preempted lockRef's timed-out write
// resurfaces inside the next critical section (the grant skipped
// synchronize), and the checker must name the offending ops.
func TestECFStaleLockRefWriteSurviving(t *testing.T) {
	g1 := mk(KindAcquire, 1, 0, 5*us)
	putA := withValue(mk(KindPut, 1, 10*us, 20*us), "v1", ts(1, 10))
	putB := failed(withValue(mk(KindPut, 1, 30*us, 45*us), "v2", ts(1, 30)), "store: timeout")
	fr := mk(KindForcedRelease, 1, 100*us, 110*us)
	fr.TS = tsForced(1)
	g2 := withValue(mk(KindAcquire, 2, 120*us, 140*us), "v1", 0)
	g2.Synchronized = false // the injected protocol mutation: no synchronize
	getOK := withValue(mk(KindGet, 2, 150*us, 160*us), "v1", 0)
	getBad := withValue(mk(KindGet, 2, 200*us, 210*us), "v2", 0) // stale write leaked
	ops := finish([]Op{g1, putA, putB, fr, g2, getOK, getBad})
	putB, fr, getBad = ops[2], ops[3], ops[6] // finish assigned the ids

	res := Check(ops, CheckOptions{})
	var fresh, syncSkip *Violation
	for i := range res.Violations {
		switch res.Violations[i].Rule {
		case "freshness":
			fresh = &res.Violations[i]
		case "sync-skip":
			syncSkip = &res.Violations[i]
		}
	}
	if fresh == nil {
		t.Fatalf("stale-lockRef write surviving not flagged as freshness violation; got [%s]", rules(res.Violations))
	}
	if syncSkip == nil {
		t.Fatalf("skipped synchronize after forced release not flagged; got [%s]", rules(res.Violations))
	}
	// The violation must carry the offending ops: the read, the dead write
	// it echoed, and the forced release that killed it.
	has := func(v *Violation, id uint64) bool {
		for _, o := range v.Ops {
			if o.ID == id {
				return true
			}
		}
		return false
	}
	if !has(fresh, getBad.ID) || !has(fresh, putB.ID) || !has(fresh, fr.ID) {
		t.Fatalf("freshness violation missing offending ops:\n%s", fresh)
	}
	if !strings.Contains(fresh.String(), "freshness") || !strings.Contains(fresh.String(), `"v2"`) {
		t.Fatalf("violation render: %s", fresh)
	}

	// The same history with the synchronize performed (and the value
	// re-stamped into lockRef 2's window) is clean except that reading v2
	// would still be stale; reading v1 passes.
	sync2 := withValue(mk(KindSync, 2, 125*us, 135*us), "v1", ts(2, 0))
	g2ok := g2
	g2ok.Synchronized = true
	fixed := finish([]Op{g1, putA, putB, fr, g2ok, sync2, getOK, getOK})
	if res := Check(fixed, CheckOptions{}); !res.Ok() {
		t.Fatalf("correct-protocol history flagged: %s", rules(res.Violations))
	}
}

// TestECFSyncSkipDuplicateForcedRelease: two sites concurrently preempting
// the same ref record two forced releases, but the store treats them as one
// preemption — only the earliest creates a synchronize obligation. The
// duplicate completing *after* ref 2's synchronized grant must not impose a
// fresh obligation on ref 3 (the false positive the explorer surfaced).
func TestECFSyncSkipDuplicateForcedRelease(t *testing.T) {
	g1 := mk(KindAcquire, 1, 0, 5*us)
	fr1 := mk(KindForcedRelease, 1, 50*us, 60*us)
	fr1.TS = tsForced(1)
	g2 := mk(KindAcquire, 2, 70*us, 90*us)
	g2.Synchronized = true                            // discharges the obligation
	fr1dup := mk(KindForcedRelease, 1, 55*us, 100*us) // straggling duplicate
	fr1dup.Site = "site-b"
	fr1dup.TS = tsForced(1)
	rel2 := mk(KindRelease, 2, 110*us, 120*us)
	g3 := mk(KindAcquire, 3, 130*us, 150*us) // legitimately unsynchronized

	ops := finish([]Op{g1, fr1, g2, fr1dup, rel2, g3})
	if res := Check(ops, CheckOptions{}); !res.Ok() {
		t.Fatalf("duplicate forced release imposed a second obligation: %s", rules(res.Violations))
	}

	// Control: with ref 2's grant unsynchronized the single obligation is
	// unmet and must still be flagged.
	g2bad := g2
	g2bad.Synchronized = false
	broken := finish([]Op{g1, fr1, g2bad, fr1dup, rel2, g3})
	res := Check(broken, CheckOptions{})
	if !strings.Contains(rules(res.Violations), "sync-skip") {
		t.Fatalf("unsynchronized first grant after forced release not flagged; got [%s]", rules(res.Violations))
	}
}

// TestECFSyncSkipFailedSynchronizeDischarges: a synchronize can fail at its
// last step — the value rewrite acked at quorum, the synchFlag reset reported
// too few acks yet landed and propagated — and the retried acquire then reads
// a clean flag and rightly grants without synchronizing. The store is defined
// from the rewrite's ack on, so the failed KindSync noted "rewritten"
// discharges the forced release's obligation (the false positive explorer
// seed 177 surfaced once waiters woke on the dequeue's commit). A synchronize
// that failed before its rewrite was acked discharges nothing.
func TestECFSyncSkipFailedSynchronizeDischarges(t *testing.T) {
	g1 := mk(KindAcquire, 1, 0, 5*us)
	put1 := withValue(mk(KindPut, 1, 10*us, 20*us), "v1", ts(1, 10))
	fr := mk(KindForcedRelease, 1, 50*us, 60*us)
	fr.TS = tsForced(1)
	sync2 := failed(withValue(mk(KindSync, 2, 70*us, 100*us), "v1", ts(2, 0)), "synchronize reset: store: 1/2 acks")
	sync2.Note = NoteRewritten
	try2 := failed(mk(KindAcquire, 2, 65*us, 100*us), "acquireLock k: synchronize reset: store: 1/2 acks")
	try2.Synchronized = true
	g2 := withValue(mk(KindAcquire, 2, 100*us, 120*us), "v1", 0) // retried: flag reads clean
	get2 := withValue(mk(KindGet, 2, 130*us, 140*us), "v1", 0)
	rel2 := mk(KindRelease, 2, 150*us, 160*us)

	clean := finish([]Op{g1, put1, fr, sync2, try2, g2, get2, rel2})
	if res := Check(clean, CheckOptions{}); !res.Ok() {
		t.Fatalf("grant after an acked-rewrite synchronize flagged: %s\n%s", rules(res.Violations), Render(clean))
	}

	// The same outcome reached through a later ref: ref 2's client gave up
	// after its failed synchronize and ref 3 is the one granted clean.
	rel2early := mk(KindRelease, 2, 105*us, 115*us)
	g3 := withValue(mk(KindAcquire, 3, 120*us, 140*us), "v1", 0)
	later := finish([]Op{g1, put1, fr, sync2, try2, rel2early, g3})
	if res := Check(later, CheckOptions{}); !res.Ok() {
		t.Fatalf("later ref's grant after an acked-rewrite synchronize flagged: %s", rules(res.Violations))
	}

	// Broken twin: the rewrite itself was not acked, so nothing out-stamps
	// lockRef 1's stragglers and the clean grant is a skipped synchronize.
	sync2bad := failed(withValue(mk(KindSync, 2, 70*us, 100*us), "v1", ts(2, 0)), "synchronize rewrite: store: 1/2 acks")
	broken := finish([]Op{g1, put1, fr, sync2bad, try2, g2, get2, rel2})
	if got := rules(Check(broken, CheckOptions{}).Violations); !strings.Contains(got, "sync-skip") {
		t.Fatalf("grant after an unacked rewrite not flagged; got [%s]", got)
	}
	// Nor does a rewrite by the preempted ref itself (before its forced
	// release) count for the grant that follows.
	sync1 := withValue(mk(KindSync, 1, 2*us, 4*us), "", ts(1, 0))
	sync1.Present, sync1.Note = false, NoteRewritten
	stale := finish([]Op{g1, sync1, put1, fr, g2, get2, rel2})
	if got := rules(Check(stale, CheckOptions{}).Violations); !strings.Contains(got, "sync-skip") {
		t.Fatalf("the preempted ref's own rewrite discharged its successor's obligation; got [%s]", got)
	}
}

// TestECFFreshnessAmbiguity: concurrent and timed-out-but-not-dead writes
// are acceptable read results — no false positives.
func TestECFFreshnessAmbiguity(t *testing.T) {
	t.Run("overlapping write", func(t *testing.T) {
		ops := finish([]Op{
			mk(KindAcquire, 1, 0, 5*us),
			withValue(mk(KindPut, 1, 10*us, 20*us), "a", ts(1, 10)),
			withValue(mk(KindPut, 1, 30*us, 60*us), "b", ts(1, 30)), // concurrent with the read
			withValue(mk(KindGet, 1, 40*us, 50*us), "b", 0),
		})
		if res := Check(ops, CheckOptions{}); !res.Ok() {
			t.Fatalf("overlapping write read flagged: %s", rules(res.Violations))
		}
	})
	t.Run("timed-out write without preemption", func(t *testing.T) {
		// The write timed out but its lockRef was never forcibly released:
		// hinted handoff may still deliver it, so reading it is legal.
		ops := finish([]Op{
			mk(KindAcquire, 1, 0, 5*us),
			withValue(mk(KindPut, 1, 10*us, 20*us), "a", ts(1, 10)),
			failed(withValue(mk(KindPut, 1, 30*us, 45*us), "b", ts(1, 30)), "store: timeout"),
			withValue(mk(KindGet, 1, 100*us, 110*us), "b", 0),
		})
		if res := Check(ops, CheckOptions{}); !res.Ok() {
			t.Fatalf("surviving timed-out write flagged: %s", rules(res.Violations))
		}
	})
}

func TestECFTSOrder(t *testing.T) {
	t.Run("decreasing stamp", func(t *testing.T) {
		ops := finish([]Op{
			withValue(mk(KindPut, 1, 10*us, 20*us), "a", ts(1, 50)),
			withValue(mk(KindPut, 1, 30*us, 40*us), "b", ts(1, 10)),
		})
		if got := rules(CheckECF(ops)); !strings.Contains(got, "ts-order") {
			t.Fatalf("decreasing v2s not flagged: [%s]", got)
		}
	})
	t.Run("frozen stamp", func(t *testing.T) {
		ops := finish([]Op{
			withValue(mk(KindPut, 1, 10*us, 20*us), "a", ts(1, 0)),
			withValue(mk(KindPut, 1, 30*us, 40*us), "b", ts(1, 0)), // frozen elapsed clock
		})
		if got := rules(CheckECF(ops)); !strings.Contains(got, "ts-order") {
			t.Fatalf("frozen v2s not flagged: [%s]", got)
		}
	})
	t.Run("redriven same value", func(t *testing.T) {
		ops := finish([]Op{
			withValue(mk(KindPut, 1, 10*us, 20*us), "a", ts(1, 10)),
			withValue(mk(KindPut, 1, 30*us, 40*us), "a", ts(1, 10)), // idempotent redrive
		})
		if got := rules(CheckECF(ops)); got != "" {
			t.Fatalf("same-value same-stamp redrive flagged: [%s]", got)
		}
	})
}

func TestECFRefWindow(t *testing.T) {
	ops := finish([]Op{
		withValue(mk(KindPut, 1, 10*us, 20*us), "a", ts(2, 5)), // ref 1 stamped inside ref 2's window
		withValue(mk(KindPut, 2, 30*us, 40*us), "b", ts(2, 0)),
	})
	if got := rules(CheckECF(ops)); !strings.Contains(got, "ref-window") {
		t.Fatalf("window overlap not flagged: [%s]", got)
	}
}

func TestECFReleaseAck(t *testing.T) {
	ops := finish([]Op{
		withValue(mk(KindPut, 1, 10*us, 50*us), "a", ts(1, 10)),
		mk(KindRelease, 1, 30*us, 40*us), // released mid-write
	})
	if got := rules(CheckECF(ops)); !strings.Contains(got, "release-ack") {
		t.Fatalf("release during in-flight write not flagged: [%s]", got)
	}
}

func TestECFGrantOrder(t *testing.T) {
	ops := finish([]Op{
		mk(KindAcquire, 2, 0, 10*us),
		mk(KindAcquire, 1, 20*us, 30*us), // lower ref first-granted later
	})
	if got := rules(CheckECF(ops)); !strings.Contains(got, "grant-order") {
		t.Fatalf("out-of-order grants not flagged: [%s]", got)
	}
}

func TestECFEcho(t *testing.T) {
	g := withValue(mk(KindAcquire, 1, 0, 5*us), "seed", 0)
	put := withValue(mk(KindPut, 1, 10*us, 20*us), "mine", ts(1, 10))
	okSeed := withValue(mk(KindGet, 1, 6*us, 6*us), "seed", 0)
	okSeed.Note = "cache"
	okOwn := withValue(mk(KindGet, 1, 30*us, 30*us), "mine", 0)
	okOwn.Note = "buffer"
	bad := withValue(mk(KindGet, 1, 40*us, 40*us), "alien", 0)
	bad.Note = "cache"

	clean := finish([]Op{g, put, okSeed, okOwn})
	if got := rules(CheckECF(clean)); got != "" {
		t.Fatalf("legal echo reads flagged: [%s]", got)
	}
	broken := finish([]Op{g, put, okSeed, bad})
	vs := CheckECF(broken)
	if got := rules(vs); !strings.Contains(got, "echo") {
		t.Fatalf("foreign cached value not flagged: [%s]", got)
	}
}

func TestECFMixedKeySkipped(t *testing.T) {
	ops := finish([]Op{
		withValue(mk(KindEventualPut, 0, 0, 10*us), "e", 77),
		withValue(mk(KindGet, 1, 20*us, 30*us), "e", 0),
	})
	res := Check(ops, CheckOptions{})
	if len(res.Skipped) != 1 || res.Skipped[0] != "k" {
		t.Fatalf("mixed eventual/critical key not skipped: %+v", res)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("skipped key still checked: %s", rules(res.Violations))
	}
}
