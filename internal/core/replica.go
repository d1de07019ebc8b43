package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/lockstore"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DataTable is the data-store table holding client key-value pairs.
const DataTable = "music_data"

// Data-table columns: the client value and the per-key synchFlag ("dirty
// bit", §IV-B), both carried as timestamped cells like Fig 2.
const (
	colValue = "value"
	colSynch = "synch"
)

// The column lists the data plane reads, shared by every read: a read
// request only encodes them.
var (
	colsValue      = []string{colValue}
	colsSynchValue = []string{colSynch, colValue}
)

// Every data-row message names the table and some of its columns, so they
// decode as the wire's shared copies rather than one allocation each.
func init() { wire.Intern(DataTable, colValue, colSynch) }

// Mode selects how criticalPut updates the data store.
type Mode int

const (
	// ModeQuorum is MUSIC: critical puts are quorum writes (1 round trip).
	ModeQuorum Mode = iota + 1
	// ModeLWT is the paper's MSCP baseline: critical puts go through a
	// Paxos LWT (4 round trips) — identical guarantees, higher cost (§VIII-b).
	ModeLWT
)

// Errors returned by critical operations.
var (
	// ErrNoLongerLockHolder means the lock was released or forcibly
	// preempted; the client must abandon this lockRef (§III-A).
	ErrNoLongerLockHolder = errors.New("music: no longer lock holder")
	// ErrNotLockHolder means the lockRef is not (yet) first in the queue —
	// either another client holds the lock or the local lock-store replica
	// has not caught up. Retryable.
	ErrNotLockHolder = errors.New("music: not the lock holder")
	// ErrExpired means the critical section exceeded its T bound; the
	// replica force-releases the lock (§VI).
	ErrExpired = errors.New("music: critical section exceeded T")
	// ErrUnavailable mirrors store.ErrUnavailable: too few back-end
	// replicas responded; the client should retry, possibly at another
	// MUSIC replica (§III-A "Failure Semantics").
	ErrUnavailable = store.ErrUnavailable
	// ErrEpochFenced means a membership epoch change moved the key's
	// placement mid-section (or a failover site asked to adopt a grant for
	// a key the new epoch no longer places there). The section cannot
	// safely continue: its earlier quorum writes went to the old replica
	// set, so a quorum assembled under the new one might miss them. The
	// fencing replica force-releases the lock — marking the synchFlag, so
	// the next grant re-stamps the surviving value under the new placement
	// — and the client must run a new critical section. Terminal for the
	// lockRef, retryable at section granularity.
	ErrEpochFenced = errors.New("music: fenced by membership epoch change")
)

// Op identifies a MUSIC operation (or sub-phase) for latency observers —
// the granularity of the paper's Fig 5(b) breakdown.
type Op int

// Operations timed into the music_op_latency histogram.
const (
	OpCreateLockRef Op = iota + 1
	OpAcquirePeek      // the local lsPeek ("L" in Fig 5b)
	OpAcquireGrant     // the synchFlag quorum read on grant ("Q")
	OpCriticalPut      // quorum put ("Q") or LWT put ("P") depending on mode
	OpCriticalGet
	OpReleaseLock
	OpForcedRelease
	OpEventualPut
	OpEventualGet
	OpLeaseGet // a plain Get served locally from the site's holder lease
)

// String names the operation for reports.
func (o Op) String() string {
	switch o {
	case OpCreateLockRef:
		return "createLockRef"
	case OpAcquirePeek:
		return "acquireLock:peek"
	case OpAcquireGrant:
		return "acquireLock:grant"
	case OpCriticalPut:
		return "criticalPut"
	case OpCriticalGet:
		return "criticalGet"
	case OpReleaseLock:
		return "releaseLock"
	case OpForcedRelease:
		return "forcedRelease"
	case OpEventualPut:
		return "put"
	case OpEventualGet:
		return "get"
	case OpLeaseGet:
		return "leaseGet"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Config parameterizes a MUSIC replica.
type Config struct {
	// T bounds the duration of one critical section (§VI): critical
	// operations past T are rejected and the lock is force-released.
	// Defaults to 1 minute.
	T time.Duration
	// OrphanTimeout bounds how long an ungranted lockRef may sit at the
	// head of a queue before MUSIC replicas presume its client died after
	// createLockRef and reap it (§IV-B a). Defaults to T.
	OrphanTimeout time.Duration
	// Mode selects quorum (MUSIC) or LWT (MSCP) critical puts.
	// Defaults to ModeQuorum.
	Mode Mode
	// Ablations (benchmarking only — they disable MUSIC's optimizations
	// while preserving correctness):
	//
	// AlwaysSynchronize makes every grant run the full data-store
	// synchronization instead of consulting the synchFlag "dirty bit"
	// (§IV-B), costing one extra quorum read and two quorum writes per
	// critical section.
	AlwaysSynchronize bool
	// QuorumPeek makes lock-queue peeks quorum reads instead of local
	// eventual reads, turning every acquireLock poll and critical-op guard
	// into a WAN round trip (§III-A motivates the local peek).
	QuorumPeek bool

	// Leases turns on site-scoped holder leases (see lease.go): a certified
	// grant issues this replica's site a clock-skew-bounded lease on the
	// key, and any client routed to the site serves Get locally for the
	// lease window. Grant recording switches from an async plain write to a
	// synchronous LWT so grants and orphan reaps serialize.
	Leases bool
	// LeaseTTL is the nominal lease window, clamped to T − 2·LeaseSkew.
	// Defaults to 2s.
	LeaseTTL time.Duration
	// LeaseSkew bounds the assumed inter-site clock skew the lease window
	// must absorb. Defaults to 250ms.
	LeaseSkew time.Duration

	// Monitor, when set, turns on adaptive reads: critical gets are served
	// at ONE consistency while the monitor judges the site safe (per
	// Nguyen/Charapko/Kulkarni/Demirbas). It watches the recorded op stream
	// for staleness and flips the site back to QUORUM when violations trip
	// its threshold, so it must be attached to the History recorder.
	Monitor *history.Monitor

	// History, when set, records every MUSIC operation (grants, releases,
	// critical reads/writes, synchronizations, preemptions) with
	// invocation/response times and v2s stamps for the ECF checker
	// (internal/history). Nil disables recording at zero cost.
	History *history.Recorder
	// Mutation injects a protocol bug for checker validation (test flag
	// only). MutationNone for the correct protocol.
	Mutation Mutation
}

// Mutation selects a deliberately broken protocol variant, used to prove
// that the internal/history ECF checker detects real violations. Never set
// outside tests.
type Mutation int

const (
	// MutationNone runs the correct protocol.
	MutationNone Mutation = iota
	// MutationSkipSynchronize makes grants ignore a set synchFlag: after a
	// forced release the new holder proceeds without re-stamping the
	// surviving value, so a preempted holder's straggler write can win the
	// quorum merge inside the next critical section — the signature ECF
	// violation.
	MutationSkipSynchronize
	// MutationFrozenElapsed stamps every critical write at elapsed 0, as if
	// the section clock never advanced: a section's writes collide on one
	// v2s stamp and last-writer-wins order becomes value-dependent.
	MutationFrozenElapsed
	// MutationStaleReads serves every adaptive weak read one write behind
	// (the previously observed row instead of the current one) —
	// deterministic injected staleness proving the consistency monitor
	// detects violations and flips the site to QUORUM.
	MutationStaleReads
)

// String names the mutation for explorer repro headers.
func (m Mutation) String() string {
	switch m {
	case MutationNone:
		return "none"
	case MutationSkipSynchronize:
		return "skipSynchronize"
	case MutationFrozenElapsed:
		return "frozenElapsed"
	case MutationStaleReads:
		return "staleReads"
	default:
		return fmt.Sprintf("mutation(%d)", int(m))
	}
}

func (c Config) withDefaults() Config {
	if c.T == 0 {
		c.T = time.Minute
	}
	if c.Mode == 0 {
		c.Mode = ModeQuorum
	}
	if c.OrphanTimeout == 0 {
		c.OrphanTimeout = c.T
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.LeaseSkew == 0 {
		c.LeaseSkew = 250 * time.Millisecond
	}
	return c
}

// Replica is one MUSIC replica (Fig 1): clients send it operations, and it
// drives the back-end lock and data stores. A replica is colocated with a
// store coordinator node; its CPU work and message origins are that node's.
//
// The plane is partitioned by store.ShardOf(key) across planeShards, one
// per store client NewReplicaSharded is given: each shard carries its own
// store client (its own coordinator node in a sharded deployment),
// lockstore service, and grant-tracking maps under a private mutex, so
// shard A's mutex is never contended by shard B's keys. With one shard —
// NewReplica's — shardFor short-circuits without hashing, so unsharded
// replicas pay nothing.
type Replica struct {
	cfg    Config
	node   transport.NodeID
	site   string
	shards []*planeShard
}

// planeShard is one shard's slice of the MUSIC plane.
type planeShard struct {
	ds *store.Client
	ls *lockstore.Service

	mu     sync.Mutex
	grants map[string]grant         // key → local record of our granted head
	seen   map[string]headAge       // key → when we first saw the current head
	behind map[string]int64         // key/ref → when the local queue first hid it
	stale  map[string]store.RowView // MutationStaleReads: last row served per key
}

type grant struct {
	ref         int64
	startMicros int64
	// epoch and replicas snapshot the key's placement when the grant was
	// recorded locally. guardCritical's epoch fence compares them against
	// the live placement: while the replica set is unchanged the section
	// proceeds (and silently adopts the new epoch); once membership moves
	// the key, the section is preempted (see ErrEpochFenced).
	epoch    int64
	replicas []transport.NodeID
	// held is the key's value as the section knows it (see read.go): the one
	// copy the session's reads and the site lease both serve from.
	held heldValue
}

type headAge struct {
	ref         int64
	sinceMicros int64
}

// NewReplica builds a one-shard MUSIC replica issuing store operations
// through st (which fixes both the coordinator node and the site); use
// NewReplicaSharded to partition the plane.
func NewReplica(st *store.Client, cfg Config) *Replica {
	return NewReplicaSharded([]*store.Client{st}, cfg)
}

// NewReplicaSharded builds a MUSIC replica whose plane is partitioned
// across len(clients) shards: shard i issues its store operations through
// clients[i], so each shard can coordinate through its own node (its own
// simnet CPU, its own TCP process). All clients must belong to the
// same site. Key routing is store.ShardOf(key, len(clients)) — a pure
// function of the key — so every site agrees on which shard owns a key.
func NewReplicaSharded(clients []*store.Client, cfg Config) *Replica {
	if len(clients) == 0 {
		panic("core: NewReplicaSharded needs at least one store client")
	}
	r := &Replica{
		cfg:    cfg.withDefaults(),
		node:   clients[0].Node(),
		site:   clients[0].Cluster().Net().SiteOf(clients[0].Node()),
		shards: make([]*planeShard, len(clients)),
	}
	for i, cl := range clients {
		r.shards[i] = &planeShard{
			ds:     cl,
			ls:     lockstore.New(cl),
			grants: make(map[string]grant),
			seen:   make(map[string]headAge),
			behind: make(map[string]int64),
			stale:  make(map[string]store.RowView),
		}
	}
	return r
}

// SetMutation injects a deliberate protocol bug into the replica (see
// Mutation) so the history checkers and the consistency monitor can prove
// they detect it. Tests only; call it before the replica serves any
// operation.
func (r *Replica) SetMutation(m Mutation) { r.cfg.Mutation = m }

// shardFor routes key to its owning plane shard. The single-shard fast
// path skips hashing entirely.
func (r *Replica) shardFor(key string) *planeShard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.shards[store.ShardOf(key, len(r.shards))]
}

// ds0 is shard 0's store client — the replica's home coordinator, used for
// shard-independent work (clock, tracing, metrics, whole-table scans).
func (r *Replica) ds0() *store.Client { return r.shards[0].ds }

// Shards returns the number of plane shards (≥ 1).
func (r *Replica) Shards() int { return len(r.shards) }

// Node returns the store node this replica coordinates through.
func (r *Replica) Node() transport.NodeID { return r.node }

// T returns the configured critical-section bound.
func (r *Replica) T() time.Duration { return r.cfg.T }

// Mode returns the critical-put mode.
func (r *Replica) Mode() Mode { return r.cfg.Mode }

func (r *Replica) nowMicros() int64 { return r.ds0().Cluster().NowMicros() }

func (r *Replica) observe(op Op, start time.Duration) {
	if o := r.ds0().Cluster().Net().Obs(); o != nil {
		o.Metrics().Histogram("music_op_latency", obs.Labels{"op": op.String(), "site": r.site}).
			Observe(r.now() - start)
	}
}

// tracer returns the shared tracer (nil when observability is disabled).
func (r *Replica) tracer() *obs.Tracer { return r.ds0().Cluster().Net().Tracer() }

// CreateLockRef enqueues and returns a new per-key unique increasing lock
// reference, good for one critical section. Cost: one consensus write (an
// LWT batching the guard increment with the enqueue, §VI).
func (r *Replica) CreateLockRef(key string) (int64, error) {
	sp := r.tracer().Start("music.createLockRef")
	sp.Annotate("key", key)
	if err := r.siteFence("createLockRef", key, 0); err != nil {
		sp.EndErr(err)
		return 0, err
	}
	start := r.now()
	ref, err := r.shardFor(key).ls.GenerateAndEnqueue(key)
	sp.EndErr(err)
	if err != nil {
		return 0, fmt.Errorf("createLockRef %s: %w", key, err)
	}
	r.observe(OpCreateLockRef, start)
	return ref, nil
}

// CriticalGet reads the latest (true) value of key for the current
// lockholder — the Table I op. A nil value with nil error means the key has
// no value. Cost: one quorum read (see read.go for the modes that lower it).
func (r *Replica) CriticalGet(key string, ref int64) ([]byte, error) {
	return r.sectionGet(key, ref, tableIReader)
}

// SessionGet is CriticalGet for the session the lock was granted to, while
// it has stayed at this replica since the grant: such a session has routed
// every write of the section through this replica, so the grant record's
// held value is the key's true value and serves the read at the cost of the
// local guard alone. The caller vouches for "has not left" (music latches it
// on a rebind count); everything else is CriticalGet.
func (r *Replica) SessionGet(key string, ref int64) ([]byte, error) {
	return r.sectionGet(key, ref, sessionReader)
}

func (r *Replica) sectionGet(key string, ref int64, who reader) (value []byte, err error) {
	sp := r.tracer().Start("music.criticalGet")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindGet, key, ref)
	defer func() { hc.End(err) }()
	start := r.now()
	value, present, rung, err := r.criticalRead(key, ref, who, hc)
	if err != nil {
		return nil, err
	}
	r.observe(OpCriticalGet, start)
	r.countRung(rung)
	if !present {
		return nil, nil
	}
	hc.Value(value, true)
	return value, nil
}

// guardCritical enforces the Exclusivity guards of §IV-A: the lockRef must
// be first in the (locally peeked) queue, granted, and within its T bound.
// It returns the elapsed time within the critical section for v2s. A refused
// guard is a failed critical op: it drops the grant record's held value.
func (r *Replica) guardCritical(key string, ref int64) (_ time.Duration, err error) {
	defer func() {
		if err != nil {
			r.dropHeld(key, ref)
		}
	}()
	head, ok, err := r.peek(key)
	if err != nil {
		return 0, err
	}
	if !ok || ref > head.Ref {
		return 0, fmt.Errorf("%w: %s/%d", ErrNotLockHolder, key, ref)
	}
	if ref < head.Ref {
		return 0, fmt.Errorf("%w: %s/%d", ErrNoLongerLockHolder, key, ref)
	}

	start, err := r.grantTime(key, ref, head)
	if err != nil {
		return 0, err
	}
	if err := r.epochFence(key, ref); err != nil {
		return 0, err
	}
	elapsed := time.Duration(r.nowMicros()-start) * time.Microsecond
	if elapsed >= r.cfg.T {
		// The critical section overran its bound: preempt ourselves so the
		// next client can synchronize and proceed (§VI).
		_ = r.ForcedRelease(key, ref)
		return 0, fmt.Errorf("%w: %s/%d elapsed %v", ErrExpired, key, ref, elapsed)
	}
	if r.cfg.Mutation == MutationFrozenElapsed {
		// Injected bug under test: the section clock never advances, so
		// every write of the section stamps at v2s(ref, 0).
		elapsed = 0
	}
	return elapsed, nil
}

// peek reads the head of the key's lock queue: a local eventual read in
// standard MUSIC, or a quorum read under the QuorumPeek ablation.
func (r *Replica) peek(key string) (lockstore.Entry, bool, error) {
	s := r.shardFor(key)
	if !r.cfg.QuorumPeek {
		return s.ls.Peek(key)
	}
	queue, err := s.ls.Queue(key)
	if err != nil || len(queue) == 0 {
		return lockstore.Entry{}, false, err
	}
	return queue[0], true, nil
}

// Put writes a key without locks at eventual consistency — for keys with no
// ECF expectations (§VI). A value written in any critical section dominates
// plain puts on the same key.
func (r *Replica) Put(key string, value []byte) error {
	sp := r.tracer().Start("music.put")
	sp.Annotate("key", key)
	hc := r.cfg.History.Begin(r.site, history.KindEventualPut, key, 0).Value(value, true)
	start := r.now()
	err := r.shardFor(key).ds.Put(DataTable, key, store.Row{colValue: store.Cell{Value: value}}, store.One)
	sp.EndErr(err)
	hc.End(err)
	if err != nil {
		return fmt.Errorf("put %s: %w", key, err)
	}
	r.observe(OpEventualPut, start)
	return nil
}

// Get reads a key without locks from the nearest replica; the result may be
// stale (§VI). In lease mode a live site lease upgrades the read for free:
// it is served from the leased section's held value under the full critical
// guard (leaseGet), giving any client routed to this site a critical-grade
// read at local cost for the lease window.
func (r *Replica) Get(key string) ([]byte, error) {
	if v, served := r.leaseGet(key); served {
		return v, nil
	}
	sp := r.tracer().Start("music.get")
	sp.Annotate("key", key)
	hc := r.cfg.History.Begin(r.site, history.KindEventualGet, key, 0)
	start := r.now()
	row, err := r.shardFor(key).ds.Read(DataTable, key, colsValue, store.One)
	sp.EndErr(err)
	if err != nil {
		hc.End(err)
		return nil, fmt.Errorf("get %s: %w", key, err)
	}
	r.observe(OpEventualGet, start)
	if value, ok := row.Live(colValue); ok {
		hc.Value(value, true).End(nil)
		return value, nil
	}
	hc.End(nil)
	return nil, nil
}

// GetAllKeys lists keys with a live value, eventually consistent (the
// homing workers' job-discovery helper, §VII-a).
func (r *Replica) GetAllKeys() ([]string, error) {
	return r.ds0().AllKeys(DataTable)
}

// Remove retires a key entirely (tombstones that dominate even critical
// writes) — how the homing Client API deletes completed jobs. The key must
// not be reused afterwards.
func (r *Replica) Remove(key string) error {
	cell := store.Cell{TS: int64(1<<63 - 1), Deleted: true}
	if err := r.shardFor(key).ds.Put(DataTable, key, store.Row{colValue: cell}, store.Quorum); err != nil {
		return fmt.Errorf("remove %s: %w", key, err)
	}
	return nil
}

// now returns the runtime clock.
func (r *Replica) now() time.Duration { return r.ds0().Cluster().Net().Runtime().Now() }

// synchFlag encoding.
var (
	synchTrueVal = []byte{1}
	synchFalse   = []byte{0}
)

func synchTrue(row store.RowView) bool {
	v, ok := row.Live(colSynch)
	return ok && len(v) == 1 && v[0] == 1
}
