package store

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/paxos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

const tbl = "t"

// fixture builds a 3-site, 1-node-per-site store cluster on a virtual
// runtime and runs fn inside it.
func fixture(t *testing.T, cfg Config, fn func(rt *sim.Virtual, net *simnet.Network, c *Cluster)) {
	t.Helper()
	rt := sim.New(7)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	c := New(net, cfg)
	if err := rt.Run(func() { fn(rt, net, c) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func val(s string) Row { return Row{"v": Cell{Value: []byte(s)}} }

// dump returns a copy of a row's cells, tombstones included; nil when the
// replica holds no such row.
func (r *replica) dump(table, key string) Row {
	s := r.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.row(table, key, false)
	if rs == nil {
		return nil
	}
	out := make(Row, len(rs.cells))
	for _, c := range rs.cells {
		out[c.col] = c.Cell
	}
	return out
}

func TestPutGetQuorum(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", val("hello"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		row, err := cl.Get(tbl, "k", Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got := string(row["v"].Value); got != "hello" {
			t.Fatalf("Get = %q, want hello", got)
		}
	})
}

func TestGetMissingRow(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		row, err := c.Client(0).Get(tbl, "nope", Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if len(row) != 0 {
			t.Fatalf("missing row = %v, want empty", row)
		}
	})
}

func TestLastWriteWins(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", Row{"v": Cell{Value: []byte("new"), TS: 100}}, Quorum); err != nil {
			t.Fatalf("Put new: %v", err)
		}
		// A write carrying an older timestamp must not clobber it.
		if err := cl.Put(tbl, "k", Row{"v": Cell{Value: []byte("old"), TS: 50}}, Quorum); err != nil {
			t.Fatalf("Put old: %v", err)
		}
		row, err := cl.Get(tbl, "k", Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got := string(row["v"].Value); got != "new" {
			t.Fatalf("Get = %q, want new (LWW)", got)
		}
	})
}

func TestCellWinsProperties(t *testing.T) {
	// Antisymmetry of the merge order over distinct cells: exactly one of
	// a.wins(b), b.wins(a) holds unless the cells are identical.
	f := func(v1, v2 []byte, ts1, ts2 int64, d1, d2 bool) bool {
		a, b := Cell{Value: v1, TS: ts1, Deleted: d1}, Cell{Value: v2, TS: ts2, Deleted: d2}
		if a.wins(b) && b.wins(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mergeIntoMap is the map merge rows used before they became sorted
// slices, kept as the reference mergeCells must agree with: the same cells
// and the same changed flag, which decides whether watches fire.
func mergeIntoMap(dst Row, src Row) bool {
	changed := false
	for col, c := range src {
		cur, ok := dst[col]
		if !ok || c.wins(cur) {
			dst[col] = c
			changed = true
		}
	}
	return changed
}

// randMergeRow builds a row over a six-column alphabet, so two rows overlap
// and inserts land at the front, middle and end of each other, with stamps
// and values from tiny ranges so that ties happen.
func randMergeRow(rng *rand.Rand) Row {
	r := Row{}
	for i := rng.Intn(5); i > 0; i-- {
		c := Cell{TS: int64(rng.Intn(4)), Deleted: rng.Intn(5) == 0}
		if rng.Intn(3) > 0 {
			c.Value = []byte{byte(rng.Intn(3))}
		}
		r[string(rune('a'+rng.Intn(6)))] = c
	}
	return r
}

// wellFormed reports whether s is sorted by column with no column twice.
func wellFormed(s sortedRow) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].col >= s[i].col {
			return false
		}
	}
	return true
}

func sameCells(a, b sortedRow) bool {
	return slices.EqualFunc(a, b, func(x, y colCell) bool { return reflect.DeepEqual(x, y) })
}

func TestMergeIdempotentAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20000; iter++ {
		a, b := randMergeRow(rng), randMergeRow(rng)
		want := maps.Clone(a)
		wantChanged := mergeIntoMap(want, b)

		src := sortRow(b)
		ab, changed := mergeCells(sortRow(a), src)
		if !wellFormed(ab) || !sameCells(ab, sortRow(want)) || changed != wantChanged {
			t.Fatalf("merge(%v, %v) = %v changed=%t, map merge gives %v changed=%t", a, b, ab, changed, want, wantChanged)
		}
		// The result must not share src's array: scribbling over src leaves
		// it as it was.
		for i := range src {
			src[i] = colCell{col: "~", Cell: Cell{TS: -1}}
		}
		if !sameCells(ab, sortRow(want)) {
			t.Fatalf("merge(%v, %v) shares the source row's array", a, b)
		}
		if ba, _ := mergeCells(sortRow(b), sortRow(a)); !sameCells(ba, ab) {
			t.Fatalf("merge is not commutative: %v vs %v", ab, ba)
		}
		if again, changed := mergeCells(ab.clone(), sortRow(b)); changed || !sameCells(again, ab) {
			t.Fatalf("merging %v into %v again changed it to %v (changed=%t)", b, ab, again, changed)
		}
	}

	// Inserts at the front, in the middle and at the end in one merge.
	dst := sortRow(Row{"b": {TS: 1}, "d": {TS: 1}})
	got, changed := mergeCells(dst, sortRow(Row{"a": {TS: 1}, "c": {TS: 1}, "e": {TS: 1}}))
	var cols []string
	for _, c := range got {
		cols = append(cols, c.col)
	}
	if !changed || !slices.Equal(cols, []string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("merge gave columns %v changed=%t, want [a b c d e] changed", cols, changed)
	}
}

func TestTombstoneDeletes(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", val("x"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := cl.Put(tbl, "k", Row{"v": Cell{Deleted: true}}, Quorum); err != nil {
			t.Fatalf("Put tombstone: %v", err)
		}
		row, err := cl.Get(tbl, "k", Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if _, ok := row["v"]; ok {
			t.Fatalf("deleted cell still visible: %v", row)
		}
	})
}

func TestQuorumWriteSurvivesOneReplicaDown(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		net.Crash(2)
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", val("v1"), Quorum); err != nil {
			t.Fatalf("Put with 1 down: %v", err)
		}
		row, err := cl.Get(tbl, "k", Quorum)
		if err != nil {
			t.Fatalf("Get with 1 down: %v", err)
		}
		if got := string(row["v"].Value); got != "v1" {
			t.Fatalf("Get = %q", got)
		}
	})
}

func TestQuorumWriteFailsWithTwoReplicasDown(t *testing.T) {
	fixture(t, Config{Timeout: 500 * time.Millisecond}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		net.Crash(1)
		net.Crash(2)
		err := c.Client(0).Put(tbl, "k", val("v1"), Quorum)
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("err = %v, want ErrUnavailable", err)
		}
	})
}

func TestHintedHandoffConvergesPartitionedReplica(t *testing.T) {
	fixture(t, Config{Timeout: 500 * time.Millisecond}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		net.Isolate(2)
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", val("v1"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if got := c.replicas[2].dump(tbl, "k"); got != nil {
			t.Fatalf("isolated replica has data: %v", got)
		}
		net.Heal()
		rt.Sleep(5 * time.Second) // handoff retries land
		got := c.replicas[2].dump(tbl, "k")
		if got == nil || string(got["v"].Value) != "v1" {
			t.Fatalf("replica 2 after heal = %v, want v1", got)
		}
	})
}

func TestNoHintedHandoffLeavesReplicaStale(t *testing.T) {
	fixture(t, Config{Timeout: 500 * time.Millisecond, NoHintedHandoff: true, NoReadRepair: true},
		func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
			net.Isolate(2)
			if err := c.Client(0).Put(tbl, "k", val("v1"), Quorum); err != nil {
				t.Fatalf("Put: %v", err)
			}
			net.Heal()
			rt.Sleep(10 * time.Second)
			if got := c.replicas[2].dump(tbl, "k"); got != nil {
				t.Fatalf("replica 2 converged without handoff/repair: %v", got)
			}
		})
}

// TestReadRepairFixesStaleReplica reads through the stale replica itself,
// at ALL and at QUORUM: the read returns the fresh value and repairs the
// coordinator's own copy in the background.
// TestReadRepairFixesStaleReplica reads through the stale replica's own
// node, where the stale reply is the first one, and — at ALL — through a
// fresh node, where it is not. The coordinator merges in the first reply's
// array and finds that reply stale by another route than the rest, so both
// positions are covered.
func TestReadRepairFixesStaleReplica(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cons  Consistency
		coord simnet.NodeID
	}{
		{"ALL", All, 2},
		{"QUORUM", Quorum, 2},
		{"ALL_through_fresh_node", All, 0},
	} {
		cons := tc.cons
		t.Run(tc.name, func(t *testing.T) {
			fixture(t, Config{Timeout: 500 * time.Millisecond, NoHintedHandoff: true},
				func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
					net.Isolate(2)
					if err := c.Client(0).Put(tbl, "k", val("v1"), Quorum); err != nil {
						t.Fatalf("Put: %v", err)
					}
					net.Heal()
					var row Row
					var err error
					for i := 0; i < 5; i++ {
						if row, err = c.Client(tc.coord).Get(tbl, "k", cons); err == nil {
							break
						}
					}
					if err != nil {
						t.Fatalf("Get %v: %v", cons, err)
					}
					if got := string(row["v"].Value); got != "v1" {
						t.Fatalf("Get %v through node %d = %q, want v1", cons, tc.coord, got)
					}
					rt.Sleep(time.Second)
					got := c.replicas[2].dump(tbl, "k")
					if got == nil || string(got["v"].Value) != "v1" {
						t.Fatalf("replica 2 after read repair = %v, want v1", got)
					}
				})
		})
	}
}

func TestEventualReadCanBeStale(t *testing.T) {
	fixture(t, Config{Timeout: 500 * time.Millisecond, NoHintedHandoff: true, NoReadRepair: true},
		func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
			cl0 := c.Client(0)
			if err := cl0.Put(tbl, "k", Row{"v": Cell{Value: []byte("v1"), TS: 10}}, All); err != nil {
				t.Fatalf("Put v1: %v", err)
			}
			net.Isolate(2)
			if err := cl0.Put(tbl, "k", Row{"v": Cell{Value: []byte("v2"), TS: 20}}, Quorum); err != nil {
				t.Fatalf("Put v2: %v", err)
			}
			net.Heal()
			// Node 2 reads locally (CL ONE): still sees v1.
			row, err := c.Client(2).Get(tbl, "k", One)
			if err != nil {
				t.Fatalf("Get ONE: %v", err)
			}
			if got := string(row["v"].Value); got != "v1" {
				t.Fatalf("stale ONE read = %q, want v1", got)
			}
			// A quorum read from the same node sees the latest value.
			row, err = c.Client(2).Get(tbl, "k", Quorum)
			if err != nil {
				t.Fatalf("Get QUORUM: %v", err)
			}
			if got := string(row["v"].Value); got != "v2" {
				t.Fatalf("quorum read = %q, want v2", got)
			}
		})
}

func TestQuorumLatencyShape(t *testing.T) {
	// From ohio, a quorum write needs the coordinator's own replica plus the
	// fastest remote (ncalifornia, RTT 53.79ms): roughly one RTT.
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		start := rt.Now()
		if err := cl.Put(tbl, "k", val("x"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		elapsed := rt.Now() - start
		if elapsed < 50*time.Millisecond || elapsed > 70*time.Millisecond {
			t.Fatalf("quorum write took %v, want ≈54ms", elapsed)
		}
	})
}

func TestCASBasicApply(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		res, err := cl.CAS(tbl, "k", []Cond{{Col: "v", Want: nil}}, val("first"))
		if err != nil {
			t.Fatalf("CAS: %v", err)
		}
		if !res.Applied {
			t.Fatal("CAS on absent row not applied")
		}
		row, err := cl.Get(tbl, "k", Quorum)
		if err != nil || string(row["v"].Value) != "first" {
			t.Fatalf("after CAS: row = %v, err = %v", row, err)
		}
	})
}

func TestCASConditionFailureReturnsCurrent(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		if err := cl.Put(tbl, "k", val("existing"), Quorum); err != nil {
			t.Fatalf("Put: %v", err)
		}
		res, err := cl.CAS(tbl, "k", []Cond{{Col: "v", Want: nil}}, val("second"))
		if err != nil {
			t.Fatalf("CAS: %v", err)
		}
		if res.Applied {
			t.Fatal("CAS applied despite failing condition")
		}
		if got, _ := res.Current.Live("v"); string(got) != "existing" {
			t.Fatalf("Current = %q, want existing", got)
		}
	})
}

func TestCASLatencyIsFourRoundTrips(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		start := rt.Now()
		if _, err := cl.CAS(tbl, "k", nil, val("x")); err != nil {
			t.Fatalf("CAS: %v", err)
		}
		elapsed := rt.Now() - start
		// 4 quorum rounds from ohio ≈ 4 × 54ms.
		if elapsed < 190*time.Millisecond || elapsed > 280*time.Millisecond {
			t.Fatalf("LWT took %v, want ≈215ms (4 RTTs)", elapsed)
		}
	})
}

func TestCASCommitStampIsBallotPure(t *testing.T) {
	// Regression: commit-time stamping used to bump an unstamped cell above
	// the replica's own current cell (cur.TS+1), so one logical CAS write
	// carried different timestamps on different replicas depending on what
	// each had locally. A quorum read then LWW-merged a stale replica's
	// higher-stamped older cell over a newer commit — observed in the
	// chaosnet campaign as a lock-row guard regression that re-minted an
	// already-used lockRef, admitting two writers to one critical section.
	// The stamp must be a pure function of the ballot: identical on a
	// replica that has never seen the row and on one holding a cell stamped
	// above the ballot counter (where LWW rightly keeps the newer cell).
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		seeded, empty := c.replicas[0], c.replicas[1]
		const high = int64(1) << 50
		if _, err := seeded.handleApply(0, applyReq{Table: tbl, Key: "k",
			Cells: sortRow(Row{"v": Cell{Value: []byte("old"), TS: high}})}); err != nil {
			t.Fatalf("seed apply: %v", err)
		}
		b := paxos.Ballot{Counter: 12345, Node: 1}
		req := commitReq{Table: tbl, Key: "k", B: b, Update: sortRow(Row{"v": Cell{Value: []byte("new")}})}
		if _, err := seeded.handleCommit(1, req); err != nil {
			t.Fatalf("commit at seeded replica: %v", err)
		}
		if _, err := empty.handleCommit(1, req); err != nil {
			t.Fatalf("commit at empty replica: %v", err)
		}
		got := empty.dump(tbl, "k")["v"]
		if string(got.Value) != "new" || got.TS != int64(b.Counter) {
			t.Fatalf("empty replica cell = %q ts=%d, want \"new\" ts=%d", got.Value, got.TS, b.Counter)
		}
		kept := seeded.dump(tbl, "k")["v"]
		if string(kept.Value) != "old" || kept.TS != high {
			t.Fatalf("seeded replica cell = %q ts=%d, want the local \"old\" cell kept at ts=%d (no per-replica stamp bump)",
				kept.Value, kept.TS, high)
		}
	})
}

func TestOvertakenCommitStillAppliesItsCells(t *testing.T) {
	// Regression: a replica applied a commit's cells only when its ballot
	// advanced the acceptor's Committed. On the wall-clock transports a
	// commit can be overtaken on the way to a replica by the commit of the
	// next CAS on the row (delivery order is goroutine scheduling), and the
	// overtaken one was then dropped whole — including the columns the later
	// update never wrote. The lock row's case: an enqueue writes guard and
	// queue, the dequeue after it writes queue only, so a replica that saw
	// the dequeue's commit first kept the old guard. With two replicas in
	// that state a serial read reads the stale guard at quorum and mints the
	// same lockRef twice — seen as a waiter told "no longer lock holder"
	// when its twin released, in an 8-client TCP run. A commit carries a
	// chosen value under coordinator-fixed stamps: it is always applied, and
	// LWW sorts out the order.
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		r := c.replicas[1]
		enqueue := commitReq{Table: tbl, Key: "k", B: paxos.Ballot{Counter: 100, Node: 0}, Update: sortRow(Row{
			"guard": Cell{Value: []byte{7}, TS: 100},
			"queue": Cell{Value: []byte{6, 7}, TS: 100},
		})}
		dequeue := commitReq{Table: tbl, Key: "k", B: paxos.Ballot{Counter: 200, Node: 2}, Update: sortRow(Row{
			"queue": Cell{Value: []byte{7}, TS: 200},
		})}
		if _, err := r.handlePrepare(0, prepareReq{Table: tbl, Key: "k", B: enqueue.B}); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if _, err := r.handlePropose(0, proposeReq{Table: tbl, Key: "k", B: enqueue.B, Update: enqueue.Update}); err != nil {
			t.Fatalf("propose: %v", err)
		}
		// The dequeue's commit arrives first, the enqueue's after it, twice
		// (the coordinator's direct apply and the RPC copy).
		for _, req := range []commitReq{dequeue, enqueue, enqueue} {
			if _, err := r.handleCommit(transport.NodeID(req.B.Node), req); err != nil {
				t.Fatalf("commit %v: %v", req.B, err)
			}
		}
		row := r.dump(tbl, "k")
		if g := row["guard"]; len(g.Value) != 1 || g.Value[0] != 7 || g.TS != 100 {
			t.Errorf("guard = %v ts=%d, want the overtaken enqueue's [7] ts=100", g.Value, g.TS)
		}
		if q := row["queue"]; len(q.Value) != 1 || q.Value[0] != 7 || q.TS != 200 {
			t.Errorf("queue = %v ts=%d, want the later dequeue's [7] ts=200 kept", q.Value, q.TS)
		}
		resp, _ := r.handlePrepare(2, prepareReq{Table: tbl, Key: "k", B: paxos.Ballot{Counter: 300, Node: 2}})
		if p := resp.(prepareResp); p.Committed != dequeue.B || !p.InProgress.IsZero() {
			t.Errorf("acceptor after the late commit: committed %v in-progress %v, want %v and none", p.Committed, p.InProgress, dequeue.B)
		}
	})
}

func TestCASLinearizesCounterIncrements(t *testing.T) {
	// The lock store's createLockRef pattern: read guard, CAS(guard==old,
	// guard=old+1). Under contention every increment must be distinct.
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		const clients, rounds = 3, 5
		type claim struct {
			client int
			value  int
		}
		claims := sim.NewMailbox[claim](rt)
		for ci := 0; ci < clients; ci++ {
			ci := ci
			cl := c.Client(simnet.NodeID(ci))
			rt.Go(func() {
				for r := 0; r < rounds; r++ {
					for {
						row, err := cl.Get(tbl, "ctr", Quorum)
						if err != nil {
							t.Errorf("Get: %v", err)
							return
						}
						cur := row["n"].Value
						next := len(cur) + 1 // unary counter keeps equality simple
						res, err := cl.CAS(tbl, "ctr",
							[]Cond{{Col: "n", Want: cur}},
							Row{"n": Cell{Value: bytesOfLen(next)}})
						if err != nil {
							t.Errorf("CAS: %v", err)
							return
						}
						if res.Applied {
							claims.Send(claim{ci, next})
							break
						}
					}
				}
			})
		}
		// Linearizability guarantee: no two applied CASes share a pre-image,
		// so every claimed value is distinct. (A beaten proposal can still
		// be completed by a competing proposer — Cassandra's "ghost" LWT —
		// so some counter values may go unclaimed; the lock store treats
		// those as orphan lockRefs, cleaned up by forcedRelease.)
		seen := make(map[int]bool)
		maxClaim := 0
		for i := 0; i < clients*rounds; i++ {
			cm, err := claims.RecvTimeout(5 * time.Minute)
			if err != nil {
				t.Fatalf("missing claims after %d: %v", i, err)
			}
			if seen[cm.value] {
				t.Fatalf("counter value %d claimed twice", cm.value)
			}
			seen[cm.value] = true
			if cm.value > maxClaim {
				maxClaim = cm.value
			}
		}
		row, err := c.Client(0).Get(tbl, "ctr", Quorum)
		if err != nil {
			t.Fatalf("final Get: %v", err)
		}
		if got := len(row["n"].Value); got < maxClaim {
			t.Fatalf("final counter %d below max claim %d", got, maxClaim)
		}
	})
}

func bytesOfLen(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'x'
	}
	return b
}

func TestCASUnavailableWithoutQuorum(t *testing.T) {
	fixture(t, Config{Timeout: 300 * time.Millisecond}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		net.Crash(1)
		net.Crash(2)
		_, err := c.Client(0).CAS(tbl, "k", nil, val("x"))
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("err = %v, want ErrUnavailable", err)
		}
	})
}

func TestCASSurvivesOneReplicaDown(t *testing.T) {
	fixture(t, Config{Timeout: 300 * time.Millisecond}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		net.Crash(2)
		res, err := c.Client(0).CAS(tbl, "k", nil, val("x"))
		if err != nil || !res.Applied {
			t.Fatalf("CAS with one down = (%+v, %v)", res, err)
		}
	})
}

func TestAllKeys(t *testing.T) {
	fixture(t, Config{}, func(rt *sim.Virtual, net *simnet.Network, c *Cluster) {
		cl := c.Client(0)
		for i := 0; i < 5; i++ {
			if err := cl.Put(tbl, fmt.Sprintf("key-%d", i), val("x"), Quorum); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := cl.Put(tbl, "key-3", Row{"v": Cell{Deleted: true}}, Quorum); err != nil {
			t.Fatalf("Put tombstone: %v", err)
		}
		keys, err := cl.AllKeys(tbl)
		if err != nil {
			t.Fatalf("AllKeys: %v", err)
		}
		want := []string{"key-0", "key-1", "key-2", "key-4"}
		if len(keys) != len(want) {
			t.Fatalf("AllKeys = %v, want %v", keys, want)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("AllKeys = %v, want %v", keys, want)
			}
		}
	})
}

func TestRingSpreadsReplicasAcrossSites(t *testing.T) {
	rt := sim.New(1)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, NodesPerSite: 3})
	c := New(net, Config{RF: 3})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := c.ReplicasFor(key)
		if len(reps) != 3 {
			t.Fatalf("RF = %d", len(reps))
		}
		sites := make(map[string]bool)
		for _, r := range reps {
			sites[net.SiteOf(r)] = true
		}
		if len(sites) != 3 {
			t.Fatalf("key %s replicas %v span %d sites, want 3", key, reps, len(sites))
		}
	}
}

func TestRingShardsKeys(t *testing.T) {
	rt := sim.New(1)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, NodesPerSite: 3})
	c := New(net, Config{RF: 3})
	used := make(map[simnet.NodeID]bool)
	for i := 0; i < 200; i++ {
		for _, r := range c.ReplicasFor(fmt.Sprintf("key-%d", i)) {
			used[r] = true
		}
	}
	if len(used) != 9 {
		t.Fatalf("only %d/9 nodes used by sharding", len(used))
	}
}

func TestCondsMatch(t *testing.T) {
	row := Row{
		"a": Cell{Value: []byte("1")},
		"d": Cell{Value: []byte("x"), Deleted: true},
	}
	tests := []struct {
		conds []Cond
		want  bool
	}{
		{nil, true},
		{[]Cond{{Col: "a", Want: []byte("1")}}, true},
		{[]Cond{{Col: "a", Want: []byte("2")}}, false},
		{[]Cond{{Col: "b", Want: nil}}, true},
		{[]Cond{{Col: "a", Want: nil}}, false},
		{[]Cond{{Col: "d", Want: nil}}, true}, // deleted counts as absent
		{[]Cond{{Col: "d", Want: []byte("x")}}, false},
		{[]Cond{{Col: "a", Want: []byte("1")}, {Col: "b", Want: nil}}, true},
	}
	for i, tt := range tests {
		if got := condsMatch(tt.conds, sortRow(row)); got != tt.want {
			t.Errorf("case %d: condsMatch = %v, want %v", i, got, tt.want)
		}
	}
}
