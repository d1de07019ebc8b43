package lockstore

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// fixture runs fn against a 3-site lock store on a virtual runtime.
func fixture(t *testing.T, fn func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster)) {
	t.Helper()
	rt := sim.New(3)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	c := store.New(net, store.Config{})
	if err := rt.Run(func() { fn(rt, net, c) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGenerateAndEnqueueIncreasing(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		var last int64
		for i := 0; i < 5; i++ {
			ref, err := svc.GenerateAndEnqueue("k")
			if err != nil {
				t.Fatalf("enqueue %d: %v", i, err)
			}
			if ref <= last {
				t.Fatalf("ref %d not increasing past %d", ref, last)
			}
			last = ref
		}
		queue, err := svc.Queue("k")
		if err != nil {
			t.Fatalf("Queue: %v", err)
		}
		if len(queue) != 5 {
			t.Fatalf("queue length = %d, want 5", len(queue))
		}
		for i := 1; i < len(queue); i++ {
			if queue[i].Ref <= queue[i-1].Ref {
				t.Fatalf("queue not FIFO-increasing: %+v", queue)
			}
		}
	})
}

func TestRefsUniqueAcrossKeys(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		r1, err := svc.GenerateAndEnqueue("a")
		if err != nil {
			t.Fatalf("enqueue a: %v", err)
		}
		r2, err := svc.GenerateAndEnqueue("b")
		if err != nil {
			t.Fatalf("enqueue b: %v", err)
		}
		// Guards are per key: both start at 1.
		if r1 != 1 || r2 != 1 {
			t.Fatalf("first refs = %d, %d, want 1, 1", r1, r2)
		}
	})
}

func TestPeekHeadAndDequeue(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		r1, _ := svc.GenerateAndEnqueue("k")
		r2, _ := svc.GenerateAndEnqueue("k")

		head, ok, err := svc.Peek("k")
		if err != nil || !ok {
			t.Fatalf("Peek = (%v, %v, %v)", head, ok, err)
		}
		if head.Ref != r1 {
			t.Fatalf("head = %d, want %d", head.Ref, r1)
		}

		if err := svc.Dequeue("k", r1); err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		head, ok, err = svc.Peek("k")
		if err != nil || !ok || head.Ref != r2 {
			t.Fatalf("after dequeue: Peek = (%v, %v, %v), want head %d", head, ok, err, r2)
		}

		if err := svc.Dequeue("k", r2); err != nil {
			t.Fatalf("Dequeue r2: %v", err)
		}
		_, ok, err = svc.Peek("k")
		if err != nil || ok {
			t.Fatalf("empty queue: Peek ok = %v, err = %v", ok, err)
		}
	})
}

func TestDequeueMissingRefIsNoOp(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		r1, _ := svc.GenerateAndEnqueue("k")
		if err := svc.Dequeue("k", 999); err != nil {
			t.Fatalf("Dequeue missing: %v", err)
		}
		head, ok, _ := svc.Peek("k")
		if !ok || head.Ref != r1 {
			t.Fatalf("queue disturbed by missing dequeue: %+v ok=%v", head, ok)
		}
	})
}

func TestDequeueMiddleOfQueue(t *testing.T) {
	// A client that failed to win the lock evicts its reference from the
	// middle (the homing workers' removeLockReference pattern).
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		r1, _ := svc.GenerateAndEnqueue("k")
		r2, _ := svc.GenerateAndEnqueue("k")
		r3, _ := svc.GenerateAndEnqueue("k")
		if err := svc.Dequeue("k", r2); err != nil {
			t.Fatalf("Dequeue middle: %v", err)
		}
		queue, err := svc.Queue("k")
		if err != nil {
			t.Fatalf("Queue: %v", err)
		}
		if len(queue) != 2 || queue[0].Ref != r1 || queue[1].Ref != r3 {
			t.Fatalf("queue = %+v, want [%d %d]", queue, r1, r3)
		}
	})
}

func TestConcurrentEnqueuesDistinctRefs(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		refs := sim.NewMailbox[int64](rt)
		const n = 6
		for i := 0; i < n; i++ {
			node := simnet.NodeID(i % 3)
			svc := New(c.Client(node))
			rt.Go(func() {
				ref, err := svc.GenerateAndEnqueue("k")
				if err != nil {
					t.Errorf("enqueue: %v", err)
					refs.Send(-1)
					return
				}
				refs.Send(ref)
			})
		}
		seen := make(map[int64]bool)
		for i := 0; i < n; i++ {
			ref, err := refs.RecvTimeout(5 * time.Minute)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if ref < 0 {
				return
			}
			if seen[ref] {
				t.Fatalf("ref %d issued twice", ref)
			}
			seen[ref] = true
		}
		// Queue must contain every issued ref in increasing order (possibly
		// with orphan ghosts from completed-but-unreported CASes).
		svc := New(c.Client(0))
		queue, err := svc.Queue("k")
		if err != nil {
			t.Fatalf("Queue: %v", err)
		}
		inQueue := make(map[int64]bool, len(queue))
		for i, e := range queue {
			if i > 0 && e.Ref <= queue[i-1].Ref {
				t.Fatalf("queue out of order: %+v", queue)
			}
			inQueue[e.Ref] = true
		}
		for ref := range seen {
			if !inQueue[ref] {
				t.Fatalf("issued ref %d missing from queue %+v", ref, queue)
			}
		}
	})
}

func TestGrantTimeVisibleInPeek(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		ref, _ := svc.GenerateAndEnqueue("k")
		head, ok, _ := svc.Peek("k")
		if !ok || head.StartTime != 0 {
			t.Fatalf("ungranted head StartTime = %d, want 0", head.StartTime)
		}
		if err := svc.SetGrant("k", ref, 12345, 7); err != nil {
			t.Fatalf("SetGrant: %v", err)
		}
		head, ok, _ = svc.Peek("k")
		if !ok || head.StartTime != 12345 || head.GrantEpoch != 7 {
			t.Fatalf("granted head = %+v, want StartTime 12345 GrantEpoch 7", head)
		}
	})
}

func TestPeekIsLocalAndFast(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		if _, err := svc.GenerateAndEnqueue("k"); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		start := rt.Now()
		if _, _, err := svc.Peek("k"); err != nil {
			t.Fatalf("Peek: %v", err)
		}
		if d := rt.Now() - start; d > 5*time.Millisecond {
			t.Fatalf("local peek took %v, want sub-ms", d)
		}
	})
}

func TestPeekSeesStaleLocalReplica(t *testing.T) {
	// A peek on a partitioned site must not see enqueues it missed —
	// acquireLock's "local store not yet updated" case.
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc0 := New(c.Client(0))
		svc2 := New(c.Client(2))
		net.Isolate(2)
		if _, err := svc0.GenerateAndEnqueue("k"); err != nil {
			t.Fatalf("enqueue during partition: %v", err)
		}
		if _, ok, err := svc2.Peek("k"); err != nil || ok {
			t.Fatalf("isolated peek = ok %v err %v, want empty", ok, err)
		}
		net.Heal()
	})
}

func TestQueueCodecRoundTrip(t *testing.T) {
	queue := []Entry{{Ref: 1}, {Ref: 7}, {Ref: 1 << 40}}
	row := store.Row{colQueue: store.Cell{Value: encodeQueue(queue)}}
	got := decodeQueue(row.View())
	if len(got) != 3 || got[0].Ref != 1 || got[1].Ref != 7 || got[2].Ref != 1<<40 {
		t.Fatalf("round trip = %+v", got)
	}
	if decodeQueue(store.Row{}.View()) != nil {
		t.Fatal("empty row decodes non-nil")
	}
	if g := decodeGuard(store.Row{colGuard: store.Cell{Value: encodeGuard(99)}}.View()); g != 99 {
		t.Fatalf("guard round trip = %d", g)
	}
}

func TestGrantCellCodec(t *testing.T) {
	cell := grantCell(7, 12345, 3, 99)
	if len(cell.Value) != grantCellLen || cell.TS != 7 || cell.Deleted {
		t.Fatalf("grantCell = %d bytes at TS %d (deleted %v), want %d live bytes at TS 7", len(cell.Value), cell.TS, cell.Deleted, grantCellLen)
	}
	good := cell.Value
	for _, tc := range []struct {
		name              string
		cell              []byte
		ref               int64
		start, epoch, tag int64
	}{
		{"round trip", good, 7, 12345, 3, 99},
		{"another ref's cell", good, 8, 0, 0, 0},
		{"an earlier ref's cell", good, 6, 0, 0, 0},
		{"no cell", nil, 7, 0, 0, 0},
		{"empty", []byte{}, 7, 0, 0, 0},
		{"truncated mid-word", good[:grantCellLen-1], 7, 0, 0, 0},
		{"truncated to the pre-tag length", good[:24], 7, 0, 0, 0},
		{"truncated to the ref", good[:8], 7, 0, 0, 0},
		{"over-long", append(bytes.Clone(good), 0), 7, 0, 0, 0},
		{"two cells long", append(bytes.Clone(good), good...), 7, 0, 0, 0},
	} {
		row := store.Row{}
		if tc.cell != nil {
			row[colGrant] = store.Cell{Value: tc.cell}
		}
		start, epoch, tag := decodeGrant(row.View(), tc.ref)
		if start != tc.start || epoch != tc.epoch || int64(tag) != tc.tag {
			t.Errorf("%s: decodeGrant(ref %d) = (%d, %d, %d), want (%d, %d, %d)",
				tc.name, tc.ref, start, epoch, tag, tc.start, tc.epoch, tc.tag)
		}
	}
	if start, _, _ := decodeGrant(store.Row{colGrant: store.Cell{Value: good, Deleted: true}}.View(), 7); start != 0 {
		t.Errorf("deleted cell decodes as granted at %d", start)
	}
}

// A grant write for ref N that is delivered after ref N+1's — a straggler, or
// a granter's background retry — must not displace it: the cell is stamped
// with its ref, not with the clock of whoever wrote it last.
func TestStragglingGrantCannotDisplaceNewer(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		svc := New(c.Client(0))
		r1, _ := svc.GenerateAndEnqueue("k")
		r2, _ := svc.GenerateAndEnqueue("k")
		if err := svc.SetGrant("k", r1, 111, 0); err != nil {
			t.Fatalf("SetGrant r1: %v", err)
		}
		if err := svc.Dequeue("k", r1); err != nil {
			t.Fatalf("Dequeue r1: %v", err)
		}
		// r1's cell is still in the row; it must not read as r2's grant.
		if head, ok, _ := svc.Peek("k"); !ok || head.Ref != r2 || head.StartTime != 0 {
			t.Fatalf("head after r1's release = %+v, want ungranted %d", head, r2)
		}
		if err := svc.SetGrant("k", r2, 222, 5); err != nil {
			t.Fatalf("SetGrant r2: %v", err)
		}
		// The straggler arrives last — through another coordinator, whose
		// clock is as good as anyone's — and with the larger instant.
		if err := New(c.Client(1)).SetGrant("k", r1, 999, 9); err != nil {
			t.Fatalf("straggling SetGrant r1: %v", err)
		}
		rt.Sleep(time.Second)
		head, ok, err := svc.Peek("k")
		if err != nil || !ok || head.Ref != r2 || head.StartTime != 222 || head.GrantEpoch != 5 {
			t.Fatalf("Peek = (%+v, %v, %v), want %d granted at 222 under epoch 5", head, ok, err, r2)
		}
		queue, err := svc.Queue("k")
		if err != nil || len(queue) != 1 || queue[0].StartTime != 222 {
			t.Fatalf("Queue = (%+v, %v), want one entry granted at 222", queue, err)
		}
	})
}

// What lease mode relies on from SetGrantLWT and the conditioned dequeue
// (core/lease.go): exactly one grant per ref, recognizable by its owner, and
// a reap that loses to it.
func TestSetGrantLWTOutcomes(t *testing.T) {
	const tagA, tagB = 0xA1, 0xB1
	type want struct {
		applied      bool
		start, epoch int64
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, a, b *Service) (ref int64)
		want  want
	}{
		{"first grant is recorded", func(t *testing.T, a, b *Service) int64 {
			ref, _ := a.GenerateAndEnqueue("k")
			return ref
		}, want{true, 500, 2}},
		{"an earlier ref's cell is no grant", func(t *testing.T, a, b *Service) int64 {
			r1, _ := a.GenerateAndEnqueue("k")
			if applied, _, _, err := b.SetGrantLWT("k", r1, 100, 1, tagB); err != nil || !applied {
				t.Fatalf("grant r1 = (%v, %v)", applied, err)
			}
			ref, _ := a.GenerateAndEnqueue("k")
			if err := b.Dequeue("k", r1); err != nil {
				t.Fatalf("Dequeue r1: %v", err)
			}
			return ref
		}, want{true, 500, 2}},
		{"lost ack: own tag re-owns the recorded instant", func(t *testing.T, a, b *Service) int64 {
			ref, _ := a.GenerateAndEnqueue("k")
			if applied, _, _, err := a.SetGrantLWT("k", ref, 400, 1, tagA); err != nil || !applied {
				t.Fatalf("first grant = (%v, %v)", applied, err)
			}
			return ref
		}, want{true, 400, 1}},
		{"foreign grant is reported for adoption", func(t *testing.T, a, b *Service) int64 {
			ref, _ := a.GenerateAndEnqueue("k")
			if applied, _, _, err := b.SetGrantLWT("k", ref, 300, 4, tagB); err != nil || !applied {
				t.Fatalf("foreign grant = (%v, %v)", applied, err)
			}
			return ref
		}, want{false, 300, 4}},
		{"plain grant is foreign to every tag", func(t *testing.T, a, b *Service) int64 {
			ref, _ := a.GenerateAndEnqueue("k")
			if err := b.SetGrant("k", ref, 200, 0); err != nil {
				t.Fatalf("SetGrant: %v", err)
			}
			return ref
		}, want{false, 200, 0}},
		{"not yet at the head", func(t *testing.T, a, b *Service) int64 {
			_, _ = a.GenerateAndEnqueue("k")
			ref, _ := a.GenerateAndEnqueue("k")
			return ref
		}, want{false, 0, 0}},
		{"reaped: granted once, no longer queued", func(t *testing.T, a, b *Service) int64 {
			ref, _ := a.GenerateAndEnqueue("k")
			if applied, _, _, err := a.SetGrantLWT("k", ref, 400, 1, tagA); err != nil || !applied {
				t.Fatalf("first grant = (%v, %v)", applied, err)
			}
			if err := b.Dequeue("k", ref); err != nil {
				t.Fatalf("Dequeue: %v", err)
			}
			return ref
		}, want{false, 0, 0}},
	} {
		fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
			a, b := New(c.Client(0)), New(c.Client(1))
			ref := tc.setup(t, a, b)
			applied, start, epoch, err := a.SetGrantLWT("k", ref, 500, 2, tagA)
			if got := (want{applied, start, epoch}); err != nil || got != tc.want {
				t.Errorf("%s: SetGrantLWT = (%+v, %v), want %+v", tc.name, got, err, tc.want)
			}
		})
	}
}

func TestDequeueIfUngranted(t *testing.T) {
	fixture(t, func(rt *sim.Virtual, net *simnet.Network, c *store.Cluster) {
		a, b := New(c.Client(0)), New(c.Client(1))
		r1, _ := a.GenerateAndEnqueue("k")
		r2, _ := a.GenerateAndEnqueue("k")
		if applied, _, _, err := a.SetGrantLWT("k", r1, 100, 0, 0xA1); err != nil || !applied {
			t.Fatalf("grant r1 = (%v, %v)", applied, err)
		}
		// The reap of a granted ref loses, whichever site asks.
		if dequeued, err := b.DequeueIfUngranted("k", r1); err != nil || dequeued {
			t.Fatalf("reap of granted r1 = (%v, %v), want refused", dequeued, err)
		}
		// r1's grant does not shield r2, an orphan in the middle of the queue.
		if dequeued, err := b.DequeueIfUngranted("k", r2); err != nil || !dequeued {
			t.Fatalf("reap of ungranted r2 = (%v, %v), want dequeued", dequeued, err)
		}
		if dequeued, err := b.DequeueIfUngranted("k", r2); err != nil || !dequeued {
			t.Fatalf("reap of absent r2 = (%v, %v), want a no-op success", dequeued, err)
		}
		if queue, err := a.Queue("k"); err != nil || len(queue) != 1 || queue[0].Ref != r1 || queue[0].StartTime != 100 {
			t.Fatalf("Queue = (%+v, %v), want only r1, granted at 100", queue, err)
		}
		// The reap and the grant of one ref serialize: after the reap won,
		// the grant finds nothing to grant.
		r3, _ := a.GenerateAndEnqueue("k")
		if err := a.Dequeue("k", r1); err != nil {
			t.Fatalf("Dequeue r1: %v", err)
		}
		if dequeued, err := b.DequeueIfUngranted("k", r3); err != nil || !dequeued {
			t.Fatalf("reap of orphan r3 = (%v, %v)", dequeued, err)
		}
		if applied, start, _, err := a.SetGrantLWT("k", r3, 300, 0, 0xA1); err != nil || applied || start != 0 {
			t.Fatalf("grant after the reap = (%v, %d, %v), want refused with no grant", applied, start, err)
		}
	})
}

// TestLockRowBounded pins the fixed schema: a lock row is three columns
// however many lockRefs the key has seen — no per-ref column, no tombstone —
// so what a Peek ships after 500 sections is what it shipped after one.
func TestLockRowBounded(t *testing.T) {
	rt := sim.New(3)
	ob := obs.New(rt, obs.Options{})
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, Obs: ob})
	c := store.New(net, store.Config{})
	readBytes := ob.Metrics().Counter("store_read_bytes_total", obs.Labels{"site": net.SiteOf(0)})
	err := rt.Run(func() {
		svc := New(c.Client(0))
		// peekPayload is what one Peek of a one-entry, granted queue pulls off
		// the replica: every cell of the row, tombstones included.
		peekPayload := func() int64 {
			before := readBytes.Value()
			if head, ok, err := svc.Peek("k"); err != nil || !ok || head.StartTime == 0 {
				t.Fatalf("Peek = (%+v, %v, %v), want a granted head", head, ok, err)
			}
			return readBytes.Value() - before
		}
		var first int64
		const rounds = 500
		for i := 1; i <= rounds; i++ {
			ref, err := svc.GenerateAndEnqueue("k")
			if err != nil {
				t.Fatalf("round %d: enqueue: %v", i, err)
			}
			// Both ways a grant is recorded, turn and turn about.
			if i%2 == 0 {
				err = svc.SetGrant("k", ref, int64(1000+i), 0)
			} else {
				_, _, _, err = svc.SetGrantLWT("k", ref, int64(1000+i), 0, 0xA1)
			}
			if err != nil {
				t.Fatalf("round %d: grant: %v", i, err)
			}
			if i == 1 {
				first = peekPayload()
			}
			if i == rounds {
				if last := peekPayload(); last != first {
					t.Errorf("Peek payload after %d rounds = %d B, after one = %d B", rounds, last, first)
				}
			}
			if err := svc.Dequeue("k", ref); err != nil {
				t.Fatalf("round %d: dequeue: %v", i, err)
			}
		}
		row, err := c.Client(0).Get(Table, "k", store.Quorum)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if len(row) != 3 {
			t.Errorf("lock row has %d live columns after %d rounds, want 3", len(row), rounds)
		}
		// Nothing but those three is stored either: a local read ships exactly
		// their bytes (the store's accounting: name + value + 16 per cell).
		live := int64(0)
		for col, cell := range row {
			live += int64(len(col) + len(cell.Value) + 16)
		}
		before := readBytes.Value()
		if _, err := c.Client(0).Get(Table, "k", store.One); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if shipped := readBytes.Value() - before; shipped != live {
			t.Errorf("a local read of the row ships %d B, its three live columns are %d B: tombstones", shipped, live)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWatchWakesOnlyTheNewHead: a lock row changes about three times a
// section and a hot key can have many waiters at one site, so a watch fires
// only once the head of the queue is its ref or beyond — one wake per
// handoff, not one per waiter per write. With 50 waiters parked behind a
// holder, recording the holder's grant wakes nobody and the holder's dequeue
// wakes exactly the next ref; a ref that is passed (dequeued from the middle,
// then overtaken) is woken to find out it is dead. lockstore_watchers follows
// the parked count throughout.
func TestWatchWakesOnlyTheNewHead(t *testing.T) {
	rt := sim.New(3)
	ob := obs.New(rt, obs.Options{})
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs, Obs: ob})
	c := store.New(net, store.Config{})
	parked := ob.Metrics().Gauge("lockstore_watchers", obs.Labels{"site": net.SiteOf(1)})
	err := rt.Run(func() {
		holder, waiters := New(c.Client(0)), New(c.Client(1))
		const n = 50
		refs := make([]int64, n+1)
		for i := range refs {
			ref, err := holder.GenerateAndEnqueue("hot")
			if err != nil {
				t.Fatalf("enqueue %d: %v", i, err)
			}
			refs[i] = ref
		}
		rt.Sleep(time.Second) // every replica has the full queue
		watches := make([]*store.Watch, n+1)
		for i := 1; i <= n; i++ {
			watches[i] = waiters.Watch("hot", refs[i])
		}
		woken := func() (out []int) {
			for i := 1; i <= n; i++ {
				if watches[i].Wait(0) {
					out = append(out, i)
				}
			}
			return out
		}
		if parked.Value() != n {
			t.Fatalf("lockstore_watchers = %d, want %d", parked.Value(), n)
		}

		if err := holder.SetGrant("hot", refs[0], 1000, 0); err != nil {
			t.Fatalf("SetGrant: %v", err)
		}
		rt.Sleep(time.Second)
		if got := woken(); len(got) != 0 {
			t.Fatalf("recording the holder's grant woke waiters %v, want none", got)
		}

		// A waiter in the middle gives up: the row changes, the head does not.
		if err := holder.Dequeue("hot", refs[7]); err != nil {
			t.Fatalf("Dequeue middle: %v", err)
		}
		rt.Sleep(time.Second)
		if got := woken(); len(got) != 0 {
			t.Fatalf("a dequeue from the middle woke waiters %v, want none", got)
		}

		if err := holder.Dequeue("hot", refs[0]); err != nil {
			t.Fatalf("Dequeue head: %v", err)
		}
		rt.Sleep(time.Second)
		if got := woken(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("the holder's dequeue woke waiters %v, want exactly the new head [1]", got)
		}
		if parked.Value() != n-1 {
			t.Errorf("lockstore_watchers after one handoff = %d, want %d", parked.Value(), n-1)
		}

		// Refs 1..6 leave; 7 left earlier and never heard. The head is now 8,
		// past 7: its watch fires so its waiter can learn the ref is dead.
		for i := 1; i <= 6; i++ {
			if err := holder.Dequeue("hot", refs[i]); err != nil {
				t.Fatalf("Dequeue %d: %v", i, err)
			}
		}
		rt.Sleep(time.Second)
		if got := woken(); len(got) != 8 || got[6] != 7 || got[7] != 8 {
			t.Fatalf("after refs 1–6 left: woken %v, want 1 through 8 (7 was passed, 8 is the head)", got)
		}

		for i := 1; i <= n; i++ {
			watches[i].Cancel()
		}
		if parked.Value() != 0 {
			t.Errorf("lockstore_watchers after every watch was cancelled = %d, want 0", parked.Value())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
