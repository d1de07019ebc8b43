// Package lockstore implements MUSIC's lock store (§III-B, §VI): a per-key
// FIFO queue of unique, increasing lock references, kept sequentially
// consistent through the data store's Paxos-based compare-and-set. Each key
// has a 64-bit guard counter whose atomic increment-and-enqueue realizes
// lsGenerateAndEnqueue with a single LWT, exactly like the paper's batched
// guard UPDATE + queue INSERT; lsDequeue is an LWT removal; lsPeek is an
// eventual read served by the local replica.
package lockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// Table is the lock table name within the shared store cluster.
const Table = "music_locks"

// A lock row has exactly three columns, whatever the key's history: the guard
// counter, the queue, and one grant cell. Only the head of a queue can be
// granted, so the grant is a property of the row, not of each lockRef: the
// cell names the ref it was recorded for and reads as "ungranted" for any
// other. It is stamped TS = ref (see grantCell), so a later ref's grant
// supersedes an earlier one's however their writes are delivered, and a
// dequeue has nothing to erase.
const (
	colGuard = "guard"
	colQueue = "queue"
	colGrant = "grant"
)

// Every lock-row message names the table and some of its columns, so they
// decode as the wire's shared copies rather than one allocation each.
func init() { wire.Intern(Table, colGuard, colQueue, colGrant) }

// Entry is one queued lock reference. StartTime is the grant time in
// microseconds (0 until the reference reaches the head and is granted).
// Nonce identifies the enqueueing client: a compare-and-set that loses its
// Paxos race can still be completed by a competing proposer (a "ghost"
// application), and the nonce lets the issuer recognize its own enqueue in
// that case instead of abandoning an orphan lockRef.
type Entry struct {
	Ref       int64
	StartTime int64
	Nonce     uint64
	// GrantEpoch is the membership epoch the grant was issued under (0 on
	// fixed-membership clusters). A replica adopting a foreign grant under
	// dynamic membership certifies the section against this epoch's placement.
	GrantEpoch int64
	// GrantTag identifies the granting site (0 on plain SetGrant cells).
	// Like Nonce for enqueues, it lets a granter whose SetGrantLWT lost its
	// Paxos ack recognize its own grant on the next poll instead of
	// treating it as foreign and waiting out the site-lease window.
	GrantTag uint64
}

// ErrContention is returned when the lock-row CAS loop exhausts its retries
// against competing clients.
var ErrContention = errors.New("lockstore: contention, retries exhausted")

// Service issues lock-store operations through one store coordinator (the
// one colocated with the calling MUSIC replica).
type Service struct {
	st *store.Client
}

// New wraps a store client as a lock store.
func New(st *store.Client) *Service { return &Service{st: st} }

// tracer returns the shared tracer (nil when observability is disabled).
func (s *Service) tracer() *obs.Tracer { return s.st.Cluster().Net().Tracer() }

// mutate is the lock row's one read → decide → compare-and-set loop; every
// operation that changes a lock row is a decide function run by it. decide is
// shown a view of the row and returns the cells to write, or nil when that
// view calls for no write. The first view is a cheap local read (an empty row
// if even that fails: the CAS discovers the truth). A nil verdict on it is
// re-checked against a quorum read — the local replica may merely lag — and
// stands once the view is authoritative: a quorum read, or the serial read a
// lost CAS returned. A lost CAS retries from that row after a randomized
// backoff. decide reports the outcome through its captured variables; what it
// recorded on its last call is what happened.
//
// The CAS asserts what the decision read: the guard and the queue always, the
// grant cell when readsGrant. Queue edits that do not care who is granted
// must not lose a Paxos round to the grant being recorded beside them — the
// default grant write is asynchronous precisely to stay off that path.
func (s *Service) mutate(op, key string, readsGrant bool, decide func(row store.RowView) store.Row) (err error) {
	sp := s.tracer().Child(op)
	sp.Annotate("key", key)
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s %s: %w", op, key, err)
		}
		sp.EndErr(err)
	}()
	row, _ := s.st.Read(Table, key, nil, store.One)
	authoritative := false
	for lost := 0; lost < 24; {
		update := decide(row)
		if update == nil {
			if authoritative {
				return nil
			}
			if row, err = s.st.Read(Table, key, nil, store.Quorum); err != nil {
				return err
			}
			authoritative = true
			continue
		}
		res, err := s.st.CAS(Table, key, rowConds(row, readsGrant), update)
		if err != nil {
			return err
		}
		if res.Applied {
			return nil
		}
		row, authoritative = res.Current, true
		lost++
		s.backoff(lost)
	}
	return ErrContention
}

// GenerateAndEnqueue atomically mints the next lock reference for key and
// appends it to the key's queue. One LWT on the fast path: the expected row
// comes from a cheap local read.
func (s *Service) GenerateAndEnqueue(key string) (ref int64, err error) {
	nonce := s.nonce()
	err = s.mutate("lockstore.enqueue", key, false, func(row store.RowView) store.Row {
		queue := decodeQueue(row)
		// A lost CAS may still have been applied on our behalf by the
		// proposer that completed our in-progress Paxos round; the nonce
		// tells us the resulting lockRef is really ours.
		for _, e := range queue {
			if e.Nonce == nonce {
				ref = e.Ref
				return nil
			}
		}
		ref = decodeGuard(row) + 1
		return store.Row{
			colGuard: store.Cell{Value: encodeGuard(ref)},
			colQueue: store.Cell{Value: encodeQueue(append(queue, Entry{Ref: ref, Nonce: nonce}))},
		}
	})
	if err != nil {
		return 0, err
	}
	return ref, nil
}

// Dequeue removes ref from the key's queue (a no-op if absent, as required
// by forcedRelease).
func (s *Service) Dequeue(key string, ref int64) error {
	_, err := s.dequeue(key, ref, false)
	return err
}

// DequeueIfUngranted removes ref from the key's queue only if no grant has
// been recorded for it — the orphan-reap side of the SetGrantLWT
// serialization. Returns dequeued=false (and no error) when a grant is
// observed: the "orphan" was granted after all and must be left to the T
// expiry path.
func (s *Service) DequeueIfUngranted(key string, ref int64) (dequeued bool, err error) {
	return s.dequeue(key, ref, true)
}

// dequeue removes ref from the queue — when ungrantedOnly, unless the grant
// cell is ref's. An absent ref counts as dequeued.
func (s *Service) dequeue(key string, ref int64, ungrantedOnly bool) (dequeued bool, err error) {
	err = s.mutate("lockstore.dequeue", key, ungrantedOnly, func(row store.RowView) store.Row {
		queue := decodeQueue(row)
		trimmed := removeRef(queue, ref)
		dequeued = true
		if len(trimmed) == len(queue) {
			return nil
		}
		if start, _, _ := decodeGrant(row, ref); ungrantedOnly && start != 0 {
			dequeued = false
			return nil
		}
		return store.Row{colQueue: store.Cell{Value: encodeQueue(trimmed)}}
	})
	return dequeued && err == nil, err
}

// Peek returns the head of the key's queue as seen by the local (same-site)
// replica — an eventual read, so the result may lag the true queue, which
// acquireLock's retry loop tolerates by design.
func (s *Service) Peek(key string) (Entry, bool, error) {
	sp := s.tracer().Child("lockstore.peek")
	sp.Annotate("key", key)
	row, err := s.st.Read(Table, key, nil, store.One)
	sp.EndErr(err)
	if err != nil {
		return Entry{}, false, fmt.Errorf("peek %s: %w", key, err)
	}
	queue := decodeQueue(row)
	if len(queue) == 0 {
		return Entry{}, false, nil
	}
	head := queue[0]
	head.StartTime, head.GrantEpoch, head.GrantTag = decodeGrant(row, head.Ref)
	return head, true, nil
}

// Watch parks a wait for ref's turn at the local replica of key's lock row —
// the push half of the handoff. A release is a dequeue, a dequeue is a Paxos
// commit, and the commit is applied at the replica next to the waiter whether
// or not anyone is waiting: the watch turns that apply into the wake-up, so a
// queued lockRef learns it reached the head one one-way delay after the
// release instead of at its next poll.
//
// A lock row changes about three times a section (enqueue, grant cell,
// dequeue) and a hot key can have hundreds of waiters at one site, so the
// watch fires only once the queue's head is ref or beyond it: ref became the
// head, or was passed (force-released) and its waiter must find out it is
// dead. An empty queue counts as "beyond". That is one 8-byte compare per
// waiter per change under the stripe lock — the head's ref is the queue
// cell's first word — and one wake per handoff.
func (s *Service) Watch(key string, ref int64) *store.Watch {
	net := s.st.Cluster().Net()
	var parked *obs.Gauge
	if o := net.Obs(); o != nil {
		parked = o.Metrics().Gauge("lockstore_watchers", obs.Labels{"site": net.SiteOf(s.st.Node())})
	}
	return s.st.Watch(Table, key, func(row store.RowView) bool {
		b, _ := row.Live(colQueue)
		return len(b) < 8 || int64(binary.BigEndian.Uint64(b)) >= ref
	}, parked)
}

// Queue returns the full queue at quorum consistency (diagnostics, tests,
// and the waiters' dead-ref check).
func (s *Service) Queue(key string) ([]Entry, error) {
	row, err := s.st.Read(Table, key, nil, store.Quorum)
	if err != nil {
		return nil, fmt.Errorf("queue %s: %w", key, err)
	}
	queue := decodeQueue(row)
	for i := range queue {
		queue[i].StartTime, queue[i].GrantEpoch, queue[i].GrantTag = decodeGrant(row, queue[i].Ref)
	}
	return queue, nil
}

// SetGrant records the grant time — and, on dynamic clusters, the grant's
// membership epoch — for a head lock reference with a plain replicated
// write (not an LWT — the cell is written by the one MUSIC replica granting
// ref, mirroring the paper's startTime column).
func (s *Service) SetGrant(key string, ref int64, startMicros, epoch int64) error {
	sp := s.tracer().Child("lockstore.setGrant")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	err := s.st.Put(Table, key, store.Row{colGrant: grantCell(ref, startMicros, epoch, 0)}, store.Quorum)
	sp.EndErr(err)
	if err != nil {
		return fmt.Errorf("set grant %s/%d: %w", key, ref, err)
	}
	return nil
}

// SetGrantLWT records the grant time with a compare-and-set instead of a
// plain write: the CAS asserts the whole observed row — ref still at the
// head, the grant cell still some earlier ref's. Lease mode needs this — the
// grant *issues a site lease*, so recording it must serialize against both
// competing granters and DequeueIfUngranted's orphan reap through the same
// Paxos row. tag identifies the granting site; a cell already carrying the
// same tag is this site's own earlier CAS whose ack was lost (or a racing
// local poll's), and is returned as applied with the recorded instant.
// Returns applied=true when this site's grant is recorded — curStart and
// curEpoch are then the authoritative cell contents. On applied=false:
// curStart > 0 means another site granted first (the caller adopts that
// grant); curStart == 0 means ref is no longer queued (reaped), so the
// caller must not treat itself as holder.
func (s *Service) SetGrantLWT(key string, ref int64, startMicros, epoch int64, tag uint64) (applied bool, curStart, curEpoch int64, err error) {
	err = s.mutate("lockstore.setGrantLWT", key, true, func(row store.RowView) store.Row {
		applied, curStart, curEpoch = false, 0, 0
		if queue := decodeQueue(row); len(queue) == 0 || queue[0].Ref != ref {
			return nil
		}
		if st, ep, owner := decodeGrant(row, ref); st != 0 {
			applied, curStart, curEpoch = tag != 0 && owner == tag, st, ep
			return nil
		}
		applied, curStart, curEpoch = true, startMicros, epoch
		return store.Row{colGrant: grantCell(ref, startMicros, epoch, tag)}
	})
	if err != nil {
		return false, 0, 0, err
	}
	return applied, curStart, curEpoch, nil
}

// nonce mints a random enqueue identity.
func (s *Service) nonce() uint64 {
	rt := s.st.Cluster().Net().Runtime()
	return uint64(rt.Rand().Int63())<<1 | 1
}

// backoff sleeps a randomized, linearly growing delay before CAS retries,
// so clients hammering the same hot lock row (Zipfian workloads) do not
// collapse the Paxos path into livelock.
func (s *Service) backoff(attempt int) {
	rt := s.st.Cluster().Net().Runtime()
	rt.Sleep(time.Duration(5+rt.Rand().Intn(25*attempt)) * time.Millisecond)
}

// rowConds builds the CAS condition asserting guard and queue — and, when
// grantToo, the grant cell — are unchanged from the observed row.
func rowConds(row store.RowView, grantToo bool) []store.Cond {
	conds := []store.Cond{
		{Col: colGuard, Want: cellBytes(row, colGuard)},
		{Col: colQueue, Want: cellBytes(row, colQueue)},
	}
	if grantToo {
		conds = append(conds, store.Cond{Col: colGrant, Want: cellBytes(row, colGrant)})
	}
	return conds
}

func cellBytes(row store.RowView, col string) []byte {
	b, _ := row.Live(col)
	return b
}

func removeRef(queue []Entry, ref int64) []Entry {
	out := queue[:0:0]
	for _, e := range queue {
		if e.Ref != ref {
			out = append(out, e)
		}
	}
	return out
}

// encodeGuard encodes an int64 counter or timestamp.
func encodeGuard(v int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return b
}

func decodeGuard(row store.RowView) int64 {
	b := cellBytes(row, colGuard)
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// grantCellLen is the one length a grant cell has.
const grantCellLen = 32

// grantCell packs (ref, startMicros, epoch, tag) as four big-endian words and
// stamps the cell TS = ref, on the plain write and the CAS alike. Store cells
// are last-writer-wins by TS, so the grant of ref N+1 beats every write of
// ref N's — a straggling or retried SetGrant(N) can never displace it — and
// two writes for one ref (a retry; two sites granting a failover client
// concurrently) converge on one of them by the store's value tiebreak.
func grantCell(ref, startMicros, epoch int64, tag uint64) store.Cell {
	b := make([]byte, grantCellLen)
	binary.BigEndian.PutUint64(b, uint64(ref))
	binary.BigEndian.PutUint64(b[8:], uint64(startMicros))
	binary.BigEndian.PutUint64(b[16:], uint64(epoch))
	binary.BigEndian.PutUint64(b[24:], tag)
	return store.Cell{Value: b, TS: ref}
}

// decodeGrant reads the row's grant cell as ref's. A cell recorded for any
// other ref — or of any other length: the bytes arrive from peers — means ref
// is ungranted, which is how a dequeued ref's grant stops mattering without
// being erased.
func decodeGrant(row store.RowView, ref int64) (startMicros, epoch int64, tag uint64) {
	b := cellBytes(row, colGrant)
	if len(b) != grantCellLen || int64(binary.BigEndian.Uint64(b)) != ref {
		return 0, 0, 0
	}
	return int64(binary.BigEndian.Uint64(b[8:])), int64(binary.BigEndian.Uint64(b[16:])), binary.BigEndian.Uint64(b[24:])
}

// encodeQueue packs queue entries as big-endian (ref, nonce) word pairs.
func encodeQueue(queue []Entry) []byte {
	b := make([]byte, 16*len(queue))
	for i, e := range queue {
		binary.BigEndian.PutUint64(b[i*16:], uint64(e.Ref))
		binary.BigEndian.PutUint64(b[i*16+8:], e.Nonce)
	}
	return b
}

func decodeQueue(row store.RowView) []Entry {
	b := cellBytes(row, colQueue)
	n := len(b) / 16
	if n == 0 {
		return nil
	}
	out := make([]Entry, n)
	for i := 0; i < n; i++ {
		out[i] = Entry{
			Ref:   int64(binary.BigEndian.Uint64(b[i*16:])),
			Nonce: binary.BigEndian.Uint64(b[i*16+8:]),
		}
	}
	return out
}
