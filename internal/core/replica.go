package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/lockstore"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/store"
)

// DataTable is the data-store table holding client key-value pairs.
const DataTable = "music_data"

// Data-table columns: the client value and the per-key synchFlag ("dirty
// bit", §IV-B), both carried as timestamped cells like Fig 2.
const (
	colValue = "value"
	colSynch = "synch"
)

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

	// AdaptiveReads serves critical gets at ONE consistency while the
	// attached Monitor judges the site safe (per Nguyen/Charapko/Kulkarni/
	// Demirbas): the monitor watches the recorded op stream for staleness
	// and flips the site back to QUORUM when violations trip its threshold.
	// Requires History and Monitor.
	AdaptiveReads bool
	// Monitor is the online consistency monitor adaptive reads consult; it
	// must be attached to the same History recorder.
	Monitor *history.Monitor

	// Shards partitions the replica's lock/data plane by
	// store.ShardOf(key, Shards): each shard owns its own lockstore
	// service, grant/seen/behind maps, and mutex, so operations on keys in
	// different shards never serialize on shared replica state. Defaults
	// to 1 (the unsharded plane). NewReplicaSharded overrides it with the
	// number of per-shard store clients it is given.
	Shards int

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
// The plane is partitioned across Config.Shards planeShards by
// store.ShardOf(key): each shard carries its own store client (its own
// coordinator node in a sharded deployment), lockstore service, and
// grant-tracking maps under a private mutex, so shard A's mutex is never
// contended by shard B's keys. With one shard — the default — shardFor
// short-circuits without hashing, so unsharded replicas pay nothing.
type Replica struct {
	cfg    Config
	node   simnet.NodeID
	site   string
	shards []*planeShard
}

// planeShard is one shard's slice of the MUSIC plane.
type planeShard struct {
	ds *store.Client
	ls *lockstore.Service

	mu     sync.Mutex
	grants map[string]grant     // key → local record of our granted head
	seen   map[string]headAge   // key → when we first saw the current head
	behind map[string]int64     // key/ref → when the local queue first hid it
	stale  map[string]store.Row // MutationStaleReads: last row served per key
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
	replicas []simnet.NodeID
	// held is the key's value as the section knows it (see read.go): the one
	// copy the session's reads and the site lease both serve from.
	held heldValue
}

type headAge struct {
	ref         int64
	sinceMicros int64
}

// NewReplica builds a MUSIC replica issuing store operations through st
// (which fixes both the coordinator node and the site). Config.Shards > 1
// partitions the replica's lock-plane state while every shard keeps
// coordinating through st; use NewReplicaSharded to give each shard its
// own coordinator node.
func NewReplica(st *store.Client, cfg Config) *Replica {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	clients := make([]*store.Client, n)
	for i := range clients {
		clients[i] = st
	}
	return NewReplicaSharded(clients, cfg)
}

// NewReplicaSharded builds a MUSIC replica whose plane is partitioned
// across len(clients) shards: shard i issues its store operations through
// clients[i], so each shard can coordinate through its own node (its own
// simnet executor, its own TCP process). All clients must belong to the
// same site. Key routing is store.ShardOf(key, len(clients)) — a pure
// function of the key — so every site agrees on which shard owns a key.
func NewReplicaSharded(clients []*store.Client, cfg Config) *Replica {
	if len(clients) == 0 {
		panic("core: NewReplicaSharded needs at least one store client")
	}
	cfg.Shards = len(clients)
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
			stale:  make(map[string]store.Row),
		}
	}
	return r
}

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
func (r *Replica) Node() simnet.NodeID { return r.node }

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
	if c := r.shardFor(key).ds.Cluster(); c.Dynamic() && !c.MemberSite(r.site) {
		err := fmt.Errorf("createLockRef %s at %s (epoch %d): site not in membership: %w",
			key, r.site, c.Epoch(), ErrEpochFenced)
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

// AcquireLock reports whether lockRef now holds the key's lock. False with
// a nil error means "not yet" — poll again (Listing 1). On the granting
// call the replica checks the synchFlag with a quorum read and, if a
// preemption left the data store unsynchronized, synchronizes it before
// admitting the new lockholder (§IV-B). Cost: a local peek while waiting;
// one synchFlag quorum read on grant; plus the synchronization writes only
// after a forced release.
//
// The grant round trip already consults the data row at quorum, so it
// fetches colValue alongside colSynch and seeds the grant record's held
// value with it (read.go) for free. Idempotent re-acquires and failover
// adoptions perform no such read and seed nothing.
func (r *Replica) AcquireLock(key string, ref int64) (acquired bool, err error) {
	sp := r.tracer().Start("music.acquireLock")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	var seed heldValue
	// "Not yet" polls are dropped (no End); grants and errors are history.
	hc := r.cfg.History.Begin(r.site, history.KindAcquire, key, ref)
	defer func() {
		if err != nil || acquired {
			if acquired {
				if seed.known {
					hc.Value(seed.value, seed.present)
				}
				// The grant's certification epoch is the one current now —
				// a contended acquire may have queued across an epoch change.
				hc.EpochNow()
			}
			hc.End(err)
		}
	}()

	// Under dynamic membership, a site outside the current epoch — retired,
	// or a spare that has not joined yet — must not issue or adopt grants:
	// its sections would be invisible to the membership the rest of the
	// cluster reconfigures around. Clients see ErrEpochFenced and fail over
	// to a member site.
	if c := r.shardFor(key).ds.Cluster(); c.Dynamic() && !c.MemberSite(r.site) {
		return false, fmt.Errorf("acquire %s/%d at %s (epoch %d): site not in membership: %w",
			key, ref, r.site, c.Epoch(), ErrEpochFenced)
	}

	peekSp := r.tracer().Child("music.acquireLock.peek")
	peekStart := r.now()
	head, ok, err := r.peek(key)
	peekSp.EndErr(err)
	r.observe(OpAcquirePeek, peekStart)
	if err != nil {
		return false, err
	}
	if !ok || ref > head.Ref {
		// lockRef not visible at the local replica: usually it just lags the
		// consensus enqueue, but a forcibly released ref with no contender
		// queued behind it looks exactly the same forever. Give the local
		// store OrphanTimeout to converge, then settle against the quorum
		// queue so a preempted waiter cannot poll a dead ref indefinitely.
		sp.Annotate("outcome", "not yet head")
		if ok {
			r.reapExpiredHead(key, head)
		}
		if dead, derr := r.settleBehindRef(key, ref); derr != nil {
			return false, derr
		} else if dead {
			sp.Annotate("outcome", "dead ref")
			return false, ErrNoLongerLockHolder
		}
		return false, nil
	}
	s := r.shardFor(key)
	s.forgetWaiter(key, ref, head, ok)
	if ref < head.Ref {
		return false, ErrNoLongerLockHolder // lock forcibly released
	}

	// ref is first in the queue. Idempotent re-acquire after a grant.
	s.mu.Lock()
	g, granted := s.grants[key]
	s.mu.Unlock()
	if granted && g.ref == ref {
		hc.Note("reacquire")
		return true, nil
	}
	if head.StartTime > 0 {
		if r.cfg.Leases && head.GrantTag == r.siteTag() {
			// Our own site's grant whose SetGrantLWT ack was lost: re-own it
			// with the recorded instant — no lease wait, the window is
			// measured on this site's own clock. No seed survives the lost
			// call, so the held rung serves nothing until a section write or
			// quorum read fills it.
			r.rememberGrant(key, ref, head.StartTime, heldValue{})
			sp.Annotate("outcome", "reowned grant")
			hc.Note("adopted")
			return true, nil
		}
		// Another replica already granted this ref — the §III-A failover
		// case, where the client re-drives its acquire at this site. Adopt
		// the replicated grant time instead of re-granting: the original T
		// window keeps counting, and the section's elapsed-time timestamps
		// stay monotonic across sites, so a straggler write accepted before
		// the failover can never outrank writes issued after it.
		if err := r.adoptGrant(key, ref, head.StartTime, head.GrantEpoch); err != nil {
			return false, err
		}
		sp.Annotate("outcome", "adopted grant")
		hc.Note("adopted")
		return true, nil
	}

	grantSp := r.tracer().Child("music.acquireLock.grant")
	grantStart := r.now()
	needSync := r.cfg.AlwaysSynchronize
	if !needSync {
		sfRow, err := s.ds.GetCols(DataTable, key, []string{colSynch, colValue}, store.Quorum)
		if err != nil {
			grantSp.EndErr(err)
			return false, fmt.Errorf("acquireLock %s: synchFlag: %w", key, err)
		}
		needSync = synchTrue(sfRow)
		if !needSync {
			seed = heldValue{known: true}
			if c, ok := sfRow[colValue]; ok {
				seed.present, seed.value = true, c.Value
			}
		}
	}
	if needSync && r.cfg.Mutation == MutationSkipSynchronize {
		// Injected bug under test: treat a set synchFlag as clean and skip
		// the data-store synchronization entirely.
		needSync = false
	}
	grantSp.Annotatef("synchronize", "%t", needSync)
	hc.Note("granted").Synchronized(needSync)
	if needSync {
		val, present, syncErr := r.synchronize(key, ref)
		if syncErr != nil {
			grantSp.EndErr(syncErr)
			return false, fmt.Errorf("acquireLock %s: %w", key, syncErr)
		}
		// The rewritten value is, by construction, what a quorum read would
		// now return — seed from it.
		seed = heldValue{known: true, present: present, value: val}
	}
	grantSp.End()
	r.observe(OpAcquireGrant, grantStart)

	now := r.nowMicros()
	if r.cfg.Leases {
		// In lease mode the grant issues the site a lease, so the grant cell
		// must be recorded *synchronously and exclusively* before the holder
		// is admitted: an LWT conditioned on the whole lock row (ref at the
		// head, no grant recorded for it), serializing against competing
		// granters and against DequeueIfUngranted's orphan reap through the
		// same Paxos row.
		epoch, _ := r.placeStamp(key)
		applied, curStart, curEpoch, gerr := s.ls.SetGrantLWT(key, ref, now, epoch, r.siteTag())
		if gerr != nil {
			return false, fmt.Errorf("acquireLock %s: grant: %w", key, gerr)
		}
		if !applied {
			if curStart > 0 {
				// The grant is another site's: this call's quorum read seeds
				// nothing (and the echo rule must not see it as a grant seed).
				seed = heldValue{}
				// Another site recorded the grant first (concurrent failover
				// drive): adopt it. The adoption gate waits out that site's
				// lease window before admitting us.
				if aerr := r.adoptGrant(key, ref, curStart, curEpoch); aerr != nil {
					return false, aerr
				}
				sp.Annotate("outcome", "adopted grant")
				hc.Note("adopted")
				return true, nil
			}
			// The ref was reaped from the queue while we were granting.
			return false, fmt.Errorf("%w: %s/%d reaped during grant", ErrNoLongerLockHolder, key, ref)
		}
		// applied: curStart/curEpoch are the authoritative cell contents —
		// this call's instant, or an earlier lost-ack call's that SetGrantLWT
		// recognized by tag. The lease window runs from the recorded instant.
		r.rememberGrant(key, ref, curStart, seed)
		return true, nil
	}
	r.rememberGrant(key, ref, now, seed)
	// Record the grant time in the lock store so other MUSIC replicas can
	// detect expiry and serve failover clients. Off the critical path, but
	// not fire-and-forget: without the grant cell, failover replicas
	// misclassify a granted-but-crashed holder as an orphan and stall for
	// OrphanTimeout instead of T, so transient failures are retried.
	rt := r.ds0().Cluster().Net().Runtime()
	rt.Go(func() { r.setGrantRetried(key, ref, now) })
	return true, nil
}

// setGrantRetried drives the replicated grant-cell write with bounded
// exponential backoff. It stops early when the grant has already been
// released or preempted (the cell no longer matters) and counts permanent
// failures as music_setgrant_abandoned_total.
func (r *Replica) setGrantRetried(key string, ref, startMicros int64) {
	rt := r.ds0().Cluster().Net().Runtime()
	s := r.shardFor(key)
	// The cell carries the epoch recorded at grant time (not the epoch at
	// write time — the async retry may straddle a reconfiguration, and the
	// cell must describe the placement the grant was actually issued under).
	s.mu.Lock()
	g, ok := s.grants[key]
	s.mu.Unlock()
	epoch := int64(0)
	if ok && g.ref == ref {
		epoch = g.epoch
	}
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			rt.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
			s.mu.Lock()
			g, ok := s.grants[key]
			s.mu.Unlock()
			if !ok || g.ref != ref {
				return
			}
		}
		if err := s.ls.SetGrant(key, ref, startMicros, epoch); err == nil {
			return
		}
	}
	if o := r.ds0().Cluster().Net().Obs(); o != nil {
		o.Metrics().Counter("music_setgrant_abandoned_total", obs.Labels{"site": r.site}).Inc()
	}
}

// synchronize restores the "data store defined as the true value" invariant
// after a forced release: a quorum read followed by re-writing the result
// (or a tombstone if nothing was ever written) with the new lockholder's
// timestamp, then resetting the synchFlag (§IV-B). Whatever a preempted
// lockholder's straggling write contained, it can no longer win. The
// re-written value (and whether one exists) is returned so the grant can
// seed the new holder's cache from it.
func (r *Replica) synchronize(key string, ref int64) (value []byte, present bool, err error) {
	sp := r.tracer().Child("music.synchronize")
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindSync, key, ref).TS(v2s(ref, 0, r.cfg.T))
	defer func() { hc.Value(value, present).End(err) }()
	s := r.shardFor(key)
	row, err := s.ds.GetCols(DataTable, key, []string{colValue}, store.Quorum)
	if err != nil {
		return nil, false, fmt.Errorf("synchronize read: %w", err)
	}
	valueCell := store.Cell{TS: v2s(ref, 0, r.cfg.T), Deleted: true}
	if c, ok := row[colValue]; ok {
		valueCell = store.Cell{Value: c.Value, TS: v2s(ref, 0, r.cfg.T)}
		value, present = c.Value, true
	}
	if err := s.ds.Put(DataTable, key, store.Row{colValue: valueCell}, store.Quorum); err != nil {
		return nil, false, fmt.Errorf("synchronize rewrite: %w", err)
	}
	reset := store.Row{colSynch: store.Cell{Value: synchFalse, TS: v2s(ref, time.Microsecond, r.cfg.T)}}
	if err := s.ds.Put(DataTable, key, reset, store.Quorum); err != nil {
		return nil, false, fmt.Errorf("synchronize reset: %w", err)
	}
	return value, present, nil
}

// CriticalPut writes the latest value of key for the current lockholder.
// Cost: one quorum write of the value (MUSIC) or one LWT (MSCP).
func (r *Replica) CriticalPut(key string, ref int64, value []byte) (err error) {
	sp := r.tracer().Start("music.criticalPut")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindPut, key, ref).Value(value, true)
	defer func() { hc.End(err) }()
	start := r.now()
	if err := r.criticalWrite("criticalPut", key, ref, store.Cell{Value: value}, hc); err != nil {
		return err
	}
	r.observe(OpCriticalPut, start)
	return nil
}

// CriticalDelete removes the key's value for the current lockholder (the
// delete counterpart the paper mentions in footnote 3).
func (r *Replica) CriticalDelete(key string, ref int64) (err error) {
	sp := r.tracer().Start("music.criticalDelete")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindDelete, key, ref)
	defer func() { hc.End(err) }()
	return r.criticalWrite("criticalDelete", key, ref, store.Cell{Deleted: true}, hc)
}

// criticalWrite is the synchronous critical write both ops share: guard,
// stamp, write, then settle the grant record's held value — folded once the
// store acked the write, dropped when it did not, so the held rung never
// serves a value the store may not hold.
func (r *Replica) criticalWrite(op, key string, ref int64, cell store.Cell, hc *history.Call) error {
	elapsed, err := r.guardCritical(key, ref)
	if err != nil {
		return err
	}
	cell.TS = v2s(ref, elapsed, r.cfg.T)
	hc.TS(cell.TS)
	s := r.shardFor(key)
	// MSCP's LWT replaces the put; a tombstone is a quorum write in both modes.
	if r.cfg.Mode == ModeLWT && !cell.Deleted {
		res, casErr := s.ds.CAS(DataTable, key, nil, store.Row{colValue: cell})
		if err = casErr; err == nil && !res.Applied {
			err = errors.New("lwt not applied")
		}
	} else {
		err = s.ds.Put(DataTable, key, store.Row{colValue: cell}, store.Quorum)
	}
	if err != nil {
		r.dropHeld(key, ref)
		return fmt.Errorf("%s %s: %w", op, key, err)
	}
	r.foldHeld(key, ref, cell.Value, !cell.Deleted)
	return nil
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

// CriticalCheck verifies that ref still holds key's lock within its T
// bound — the §IV-A Exclusivity guard alone, with no data-store round trip.
// The music session layer runs it before accepting a write into, or serving
// a Get from, its client-side write buffer, so a buffered op is gated by
// exactly the same local peek as a quorum-backed critical op. Like any
// guard, an overrun section is self-preempted (ErrExpired).
func (r *Replica) CriticalCheck(key string, ref int64) error {
	_, err := r.guardCritical(key, ref)
	return err
}

// CriticalPutAsync is CriticalPut with the quorum write issued
// asynchronously: the guard runs and the write is stamped (fixing its v2s
// order) before returning, but replica acks are awaited through the handle.
// Backs the music layer's Pipelined write policy. In LWT mode the CAS round
// cannot be pipelined, so the write completes synchronously and the handle
// is returned already settled.
func (r *Replica) CriticalPutAsync(key string, ref int64, value []byte) (*store.PendingPut, error) {
	return r.criticalWriteAsync(key, ref, value, false)
}

// CriticalDeleteAsync is the tombstone counterpart of CriticalPutAsync.
func (r *Replica) CriticalDeleteAsync(key string, ref int64) (*store.PendingPut, error) {
	return r.criticalWriteAsync(key, ref, nil, true)
}

func (r *Replica) criticalWriteAsync(key string, ref int64, value []byte, deleted bool) (p *store.PendingPut, err error) {
	sp := r.tracer().Start("music.criticalPut.async")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	elapsed, err := r.guardCritical(key, ref)
	if err != nil {
		kind := history.KindPut
		if deleted {
			kind = history.KindDelete
		}
		r.cfg.History.Begin(r.site, kind, key, ref).Value(value, !deleted).End(err)
		return nil, err
	}
	if r.cfg.Mode == ModeLWT {
		// The synchronous delegate records its own history op.
		if deleted {
			return store.ResolvedPut(r.CriticalDelete(key, ref)), nil
		}
		return store.ResolvedPut(r.CriticalPut(key, ref, value)), nil
	}
	cell := store.Cell{Value: value, TS: v2s(ref, elapsed, r.cfg.T), Deleted: deleted}
	kind := history.KindPut
	if deleted {
		kind = history.KindDelete
	}
	hc := r.cfg.History.Begin(r.site, kind, key, ref).Value(value, !deleted).TS(cell.TS)
	// Folded at issue, not at ack: acks of pipelined writes arrive in any
	// order, issue order is stamp order. A write that then fails drops the
	// held value like any failed critical op.
	r.foldHeld(key, ref, value, !deleted)
	pending := r.shardFor(key).ds.PutAsync(DataTable, key, store.Row{colValue: cell}, store.Quorum)
	r.ds0().Cluster().Net().Runtime().Go(func() {
		werr := pending.Wait()
		if werr != nil {
			r.dropHeld(key, ref)
		}
		// Close the record at quorum-ack time: the op's response interval is
		// issue → settle, which is what the checker's overlap rules need.
		hc.End(werr)
	})
	return pending, nil
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

// grantTime finds when ref was granted: from this replica's local record,
// from the (replicated) grant cell, or — for failover to a replica that has
// seen neither — from a quorum read of the lock row.
func (r *Replica) grantTime(key string, ref int64, head lockstore.Entry) (int64, error) {
	s := r.shardFor(key)
	s.mu.Lock()
	g, ok := s.grants[key]
	s.mu.Unlock()
	if ok && g.ref == ref {
		return g.startMicros, nil
	}
	if head.StartTime > 0 {
		if err := r.adoptGrant(key, ref, head.StartTime, head.GrantEpoch); err != nil {
			return 0, err
		}
		return head.StartTime, nil
	}
	queue, err := s.ls.Queue(key)
	if err != nil {
		return 0, err
	}
	for _, e := range queue {
		if e.Ref == ref && e.StartTime > 0 {
			if err := r.adoptGrant(key, ref, e.StartTime, e.GrantEpoch); err != nil {
				return 0, err
			}
			return e.StartTime, nil
		}
	}
	return 0, fmt.Errorf("%w: %s/%d not granted", ErrNotLockHolder, key, ref)
}

// adoptGrant validates taking over a grant another replica issued (the
// failover path) before recording it locally. Under dynamic membership the
// adopted section keeps its ECF guarantee only if (a) the current epoch
// places the key at this site and (b) the key's replica set is unchanged
// since the epoch the grant was issued under — otherwise its earlier
// quorum writes may not intersect quorums assembled here. Grants whose
// epoch is older than the store's bounded ring history are refused
// conservatively.
func (r *Replica) adoptGrant(key string, ref, startMicros, grantEpoch int64) error {
	if r.cfg.Leases {
		// The granting site's lease may still be serving reads of this key;
		// admitting a writer here before that window provably closed would
		// let those local reads miss our writes. Refuse retryably until
		// effTTL + skew past the grant instant.
		if now := r.nowMicros(); now < r.leaseWaitMicros(startMicros) {
			return fmt.Errorf("%w: %s/%d granting site's lease window still open", ErrNotLockHolder, key, ref)
		}
	}
	c := r.shardFor(key).ds.Cluster()
	if c.Dynamic() {
		if !c.SitePlaced(key, r.site) {
			return fmt.Errorf("adopt %s/%d at %s (epoch %d): key not placed here: %w",
				key, ref, r.site, c.Epoch(), ErrEpochFenced)
		}
		if epoch := c.Epoch(); grantEpoch != epoch {
			old, ok := c.ReplicasForAt(key, grantEpoch)
			if !ok || !sameNodes(old, c.ReplicasFor(key)) {
				return fmt.Errorf("adopt %s/%d at %s: granted under epoch %d, placement changed by epoch %d: %w",
					key, ref, r.site, grantEpoch, epoch, ErrEpochFenced)
			}
		}
	}
	// An adopted record knows no value: the section's earlier writes went
	// through another replica.
	r.rememberGrant(key, ref, startMicros, heldValue{})
	return nil
}

func (r *Replica) rememberGrant(key string, ref, startMicros int64, held heldValue) {
	s := r.shardFor(key)
	epoch, replicas := r.placeStamp(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grants[key] = grant{ref: ref, startMicros: startMicros, epoch: epoch, replicas: replicas, held: held}
}

// placeStamp snapshots the key's placement (epoch + replica set) for a
// grant record. On static clusters the replica set is not needed — the
// epoch never changes, so the fence can never fire — and skipping it keeps
// grants allocation-free there.
func (r *Replica) placeStamp(key string) (int64, []simnet.NodeID) {
	c := r.shardFor(key).ds.Cluster()
	if !c.Dynamic() {
		return c.Epoch(), nil
	}
	return c.Epoch(), c.ReplicasFor(key)
}

// epochFence enforces the cross-epoch rule on a granted section: a section
// granted under epoch N may keep operating only while the key's replica
// set is the one it was granted under. A membership change that leaves the
// key in place merely advances the grant's recorded epoch; one that moves
// the key preempts the section with a forced release (marking the
// synchFlag, so the next holder synchronizes under the new placement) and
// fails the operation with ErrEpochFenced.
func (r *Replica) epochFence(key string, ref int64) error {
	s := r.shardFor(key)
	c := s.ds.Cluster()
	epoch := c.Epoch()
	if c.Dynamic() && !c.MemberSite(r.site) {
		// The epoch retired this site outright: every section it still
		// holds is preempted, whether or not the key's replicas moved.
		_ = r.ForcedRelease(key, ref)
		return fmt.Errorf("%w: site %s retired at epoch %d", ErrEpochFenced, r.site, epoch)
	}
	s.mu.Lock()
	g, ok := s.grants[key]
	s.mu.Unlock()
	if !ok || g.ref != ref || g.epoch == epoch {
		return nil
	}
	cur := c.ReplicasFor(key)
	if sameNodes(cur, g.replicas) {
		s.mu.Lock()
		if g2, ok := s.grants[key]; ok && g2.ref == ref {
			g2.epoch, g2.replicas = epoch, cur
			s.grants[key] = g2
		}
		s.mu.Unlock()
		return nil
	}
	_ = r.ForcedRelease(key, ref)
	return fmt.Errorf("%w: %s/%d placement moved at epoch %d (granted under %d)",
		ErrEpochFenced, key, ref, epoch, g.epoch)
}

// sameNodes reports set equality of two small replica lists.
func sameNodes(a, b []simnet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ReleaseLock removes lockRef from the queue, making the lock available.
// Cost: one consensus write (an LWT delete).
func (r *Replica) ReleaseLock(key string, ref int64) (err error) {
	sp := r.tracer().Start("music.releaseLock")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindRelease, key, ref)
	defer func() { hc.End(err) }()
	start := r.now()
	s := r.shardFor(key)
	held := r.forgetGrant(key, ref)
	head, ok, err := s.ls.Peek(key)
	if err != nil {
		return err
	}
	s.forgetWaiter(key, ref, head, ok)
	if ok && ref < head.Ref {
		return nil // lock was forcibly released already (§IV-A)
	}
	if r.cfg.Leases && !held && ok && head.Ref == ref && head.StartTime > 0 {
		// A release driven at a site that never held the grant locally (a
		// failover client releasing without re-acquiring here): the granting
		// site's lease may still be serving reads, and the dequeue would
		// admit the next writer under it. Wait the lease window out first.
		if wait := r.leaseWaitMicros(head.StartTime) - r.nowMicros(); wait > 0 {
			r.ds0().Cluster().Net().Runtime().Sleep(time.Duration(wait) * time.Microsecond)
		}
	}
	if err := s.ls.Dequeue(key, ref); err != nil {
		return fmt.Errorf("releaseLock %s/%d: %w", key, ref, err)
	}
	r.observe(OpReleaseLock, start)
	return nil
}

// ForcedRelease preempts lockRef, e.g. when its holder is presumed failed
// (§IV-B). Internal to MUSIC in the paper; exposed for ownership-stealing
// services like the Portal (§VII-b).
func (r *Replica) ForcedRelease(key string, ref int64) error {
	return r.forcedRelease(key, ref, false)
}

// forcedRelease first marks the key's data store as needing synchronization —
// stamping the synchFlag with the δ timestamp so the mark survives a racing
// reset by the same lockRef but yields to the next lockholder's reset — and
// only then dequeues the reference, so the next grant is guaranteed to see
// the flag.
//
// ungrantedOnly is the lease-mode orphan reap: the dequeue is conditioned on
// no grant being recorded for ref, so it can never race a SetGrantLWT that
// just issued a lease. If the grant won, the reap backs off (the mark stays —
// the next grant synchronizes, which is harmless), the T expiry path handles
// a truly dead holder.
func (r *Replica) forcedRelease(key string, ref int64, ungrantedOnly bool) (err error) {
	sp := r.tracer().Start("music.forcedRelease")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	start := r.now()
	s := r.shardFor(key)
	head, ok, err := s.ls.Peek(key)
	if err != nil {
		return err
	}
	if ok && ref < head.Ref {
		return nil // previously released (not an effective preemption: no history op)
	}
	if !ungrantedOnly {
		// Revoke the local grant record before the dequeue: once the ref
		// leaves the queue a successor can be granted, and the record's held
		// value must not serve across that boundary. (An orphan has no record
		// here unless this site granted it after all, and then the record
		// must outlive the refused dequeue.)
		r.forgetGrant(key, ref)
	}
	// Effective preemption: record it with the δ stamp the mark carries —
	// unless the reap stands down, when none happened.
	hc := r.cfg.History.Begin(r.site, history.KindForcedRelease, key, ref).TS(v2sForced(ref, r.cfg.T))
	dequeued := false
	defer func() {
		if dequeued || err != nil {
			hc.End(err)
		}
	}()
	mark := store.Row{colSynch: store.Cell{Value: synchTrueVal, TS: v2sForced(ref, r.cfg.T)}}
	if err := s.ds.Put(DataTable, key, mark, store.Quorum); err != nil {
		return fmt.Errorf("forcedRelease %s/%d: synchFlag: %w", key, ref, err)
	}
	if ungrantedOnly {
		dequeued, err = s.ls.DequeueIfUngranted(key, ref)
	} else {
		dequeued, err = true, s.ls.Dequeue(key, ref)
	}
	if err != nil {
		return fmt.Errorf("forcedRelease %s/%d: %w", key, ref, err)
	}
	if !dequeued {
		sp.Annotate("outcome", "granted after all")
		return nil
	}
	r.forgetGrant(key, ref)
	// Only now: a reap that failed part-way must find the head's orphan clock
	// still running when the next poll retries it.
	s.forgetWaiter(key, ref, head, ok)
	r.observe(OpForcedRelease, start)
	return nil
}

// forgetGrant drops the local grant record — and with it the held value and
// the site lease it backed. held reports whether this replica actually had
// the grant.
func (r *Replica) forgetGrant(key string, ref int64) (held bool) {
	s := r.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.grants[key]; ok && g.ref == ref {
		delete(s.grants, key)
		held = true
	}
	return held
}

// forgetWaiter drops what the shard tracked about ref while it waited for
// key — called with a local peek whenever ref stops waiting here: it reached
// the head, released, or was force-released. behind[key/ref] is
// ref's own. seen[key] is shared by every waiter polling here, so it goes
// only when it is garbage by that peek: it describes ref itself, or anything
// but the ungranted head the peek shows (a waiter that gives up must not
// restart the orphan clock of a head that really is dead).
func (s *planeShard) forgetWaiter(key string, ref int64, head lockstore.Entry, ok bool) {
	s.mu.Lock()
	delete(s.behind, behindID(key, ref))
	if age, tracked := s.seen[key]; tracked && (age.ref == ref || !ok || age.ref != head.Ref || head.StartTime > 0) {
		delete(s.seen, key)
	}
	s.mu.Unlock()
}

// reapExpiredHead force-releases a head lockRef whose holder appears failed:
// granted more than T ago, or never granted (orphaned by a client that died
// after createLockRef) for more than OrphanTimeout, which defaults to T
// (§IV-B a).
func (r *Replica) reapExpiredHead(key string, head lockstore.Entry) {
	now := r.nowMicros()
	tMicros := int64(r.cfg.T / time.Microsecond)
	if head.StartTime > 0 {
		if now-head.StartTime > tMicros {
			_ = r.ForcedRelease(key, head.Ref)
		}
		return
	}
	s := r.shardFor(key)
	s.mu.Lock()
	age, ok := s.seen[key]
	if !ok || age.ref != head.Ref {
		s.seen[key] = headAge{ref: head.Ref, sinceMicros: now}
		s.mu.Unlock()
		return
	}
	expired := now-age.sinceMicros > int64(r.cfg.OrphanTimeout/time.Microsecond)
	s.mu.Unlock()
	if expired {
		// In lease mode the "orphan" may be a grant racing us through
		// SetGrantLWT; the conditioned dequeue makes reap-vs-grant a
		// Paxos-serialized either/or instead of a lost lease.
		_ = r.forcedRelease(key, head.Ref, r.cfg.Leases)
	}
}

// settleBehindRef bounds how long an acquire may keep polling a lockRef the
// local queue does not show. The local store usually converges well within
// OrphanTimeout; past that, the quorum queue is consulted: a ref absent
// there was dequeued — released, or forcibly released with no contender
// queued behind it, a state the local "not yet" answer can never
// distinguish from replication lag — so its waiter must give up rather than
// poll forever. The quorum read fires at most once per OrphanTimeout per
// waiter, keeping the healthy polling path local.
func (r *Replica) settleBehindRef(key string, ref int64) (dead bool, err error) {
	s := r.shardFor(key)
	id := behindID(key, ref)
	now := r.nowMicros()
	s.mu.Lock()
	since, tracked := s.behind[id]
	if !tracked {
		s.behind[id] = now
	}
	s.mu.Unlock()
	if !tracked || time.Duration(now-since)*time.Microsecond < r.cfg.OrphanTimeout {
		return false, nil
	}
	queue, err := s.ls.Queue(key)
	if err != nil {
		return false, err
	}
	for _, e := range queue {
		if e.Ref == ref {
			// Genuinely pending; restart the convergence clock.
			s.mu.Lock()
			s.behind[id] = now
			s.mu.Unlock()
			return false, nil
		}
	}
	s.mu.Lock()
	delete(s.behind, id)
	s.mu.Unlock()
	return true, nil
}

func behindID(key string, ref int64) string { return fmt.Sprintf("%s/%d", key, ref) }

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
	row, err := r.shardFor(key).ds.GetCols(DataTable, key, []string{colValue}, store.One)
	sp.EndErr(err)
	if err != nil {
		hc.End(err)
		return nil, fmt.Errorf("get %s: %w", key, err)
	}
	r.observe(OpEventualGet, start)
	if c, ok := row[colValue]; ok {
		hc.Value(c.Value, true).End(nil)
		return c.Value, nil
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

func synchTrue(row store.Row) bool {
	c, ok := row[colSynch]
	return ok && len(c.Value) == 1 && c.Value[0] == 1
}
