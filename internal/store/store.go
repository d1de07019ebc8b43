// Package store implements the eventually consistent, replicated key-value
// store MUSIC is layered on — a from-scratch stand-in for Cassandra with
// the semantics the paper relies on (§III-B):
//
//   - tables of rows; each row is a set of named cells carrying a scalar
//     timestamp; replicas merge concurrent writes per cell, last write wins;
//   - a hash-ring partitioner with a configurable replication factor that
//     spreads each key's replicas across sites;
//   - coordinator-driven reads and writes at ONE / QUORUM / ALL consistency
//     (one round trip to the required number of replicas), with read repair
//     and hinted handoff providing eventual convergence;
//   - per-key compare-and-set ("light-weight transactions") built on Paxos,
//     costing four quorum round trips exactly like Cassandra's LWTs.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/paxos"
	"repro/internal/transport"
)

// Consistency selects how many replica acknowledgements an operation needs.
type Consistency int

// Consistency levels, mirroring Cassandra's ONE / QUORUM / ALL.
const (
	One Consistency = iota + 1
	Quorum
	All
)

// String names the level for logs and trace annotations.
func (c Consistency) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

// need translates a consistency level into an ack count for rf replicas.
func (c Consistency) need(rf int) int {
	switch c {
	case One:
		return 1
	case All:
		return rf
	default:
		return rf/2 + 1
	}
}

// Cell is one column value with its write timestamp. Deleted marks a
// tombstone. Higher timestamps win; on a timestamp tie a tombstone beats a
// live cell and otherwise the lexically larger value wins (Cassandra's
// tiebreak), so merging is commutative and idempotent.
type Cell struct {
	Value   []byte
	TS      int64
	Deleted bool
}

// Row maps column names to cells.
type Row map[string]Cell

// clone deep-copies a row (cell values are treated as immutable).
func (r Row) clone() Row {
	if r == nil {
		return nil
	}
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// live returns only the non-tombstone cells of r.
func (r Row) live() Row {
	out := make(Row, len(r))
	for k, v := range r {
		if !v.Deleted {
			out[k] = v
		}
	}
	return out
}

// wins reports whether cell a beats cell b under LWW rules.
func (a Cell) wins(b Cell) bool {
	if a.TS != b.TS {
		return a.TS > b.TS
	}
	if a.Deleted != b.Deleted {
		return a.Deleted
	}
	return bytes.Compare(a.Value, b.Value) > 0
}

// mergeInto folds src into dst cell-wise, returning true if dst changed.
func mergeInto(dst Row, src Row) bool {
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

// rowSize approximates the wire size of a row in bytes.
func rowSize(r Row) int {
	n := 0
	for col, c := range r {
		n += len(col) + len(c.Value) + 16
	}
	return n
}

// Cond is one conjunct of a compare-and-set condition: the named column
// must currently equal Want; a nil Want requires the column to be absent
// (or deleted). An empty condition list always applies.
type Cond struct {
	Col  string
	Want []byte
}

// condsMatch evaluates conditions against the live cells of row.
func condsMatch(conds []Cond, row Row) bool {
	for _, c := range conds {
		cell, ok := row[c.Col]
		present := ok && !cell.Deleted
		if c.Want == nil {
			if present {
				return false
			}
			continue
		}
		if !present || !bytes.Equal(cell.Value, c.Want) {
			return false
		}
	}
	return true
}

// Errors reported by store clients.
var (
	// ErrUnavailable means too few replicas acknowledged in time. A failed
	// write is NOT rolled back: it may have reached some replicas (§III).
	ErrUnavailable = errors.New("store: not enough replicas responded")
	// ErrContention means a compare-and-set lost too many Paxos races.
	ErrContention = errors.New("store: cas contention, retries exhausted")
)

// Per-operation CPU costs that bound node throughput, calibrated so a
// 3-node cluster sustains roughly the 41K eventual writes/s the paper
// measured for CassaEV (Fig 4a).
const (
	costCoordWrite   = 300 * time.Microsecond // coordinator work per write
	costCoordRead    = 250 * time.Microsecond // coordinator work per read
	costReplicaApply = 90 * time.Microsecond  // replica work applying a mutation
	costReplicaRead  = 90 * time.Microsecond  // replica work serving a read
	costPaxosMsg     = 80 * time.Microsecond  // replica work per Paxos message
	costPerKB        = 1500 * time.Nanosecond // added work per KiB of payload
)

// Config describes a store cluster.
type Config struct {
	// RF is the replication factor. Defaults to min(3, len(nodes)).
	RF int
	// Nodes lists the network nodes running store replicas. Defaults to
	// every node in the network.
	Nodes []transport.NodeID
	// LocalNodes lists the subset of Nodes hosted by this process: replica
	// services are registered only for them. Empty means all of Nodes are
	// local — the single-process (simulated or in-memory) deployment. The
	// ring always spans all of Nodes, so a multi-process cluster agrees on
	// placement while each musicd process serves only its own node.
	LocalNodes []transport.NodeID
	// NoReadRepair disables background repair of stale replicas on reads.
	NoReadRepair bool
	// NoHintedHandoff disables background write retries to failed replicas.
	NoHintedHandoff bool
	// Timeout bounds each replica round trip. Defaults to the network's
	// RPC timeout.
	Timeout time.Duration
	// Members, when set, seeds epoch-1 placement explicitly (node + site
	// pairs) instead of deriving it from Nodes and the transport's site
	// map. Dynamic deployments use it to start the ring on the member
	// sites while spare nodes (future joiners) already run services.
	Members []RingNode
	// Shards stripes each replica's row engine and the coordinator's
	// timestamp/ballot mints by ShardOf(key, Shards), so operations on
	// keys in different shards never contend on a shared mutex. Placement
	// (the ring walk) is unaffected: sharding partitions lock state, not
	// replica sets. Defaults to 1 (the unsharded plane).
	Shards int
	// History, when non-nil, records every coordinator-level put and every
	// quorum-level get as store.put/store.get ops (diagnostics beneath the
	// MUSIC-level history; the ECF checkers ignore store kinds). ONE reads
	// — lock-wait polling and eventual peeks — are deliberately not
	// recorded to keep explorer histories readable.
	History *history.Recorder
}

// placement is one epoch's immutable view of the ring. The cluster swaps
// the whole value atomically on a membership change, so readers on the hot
// path take no lock and an operation observes one consistent epoch.
type epochView struct {
	epoch int64
	ring  ring
}

// Cluster is a store deployment over a Transport. Build one with New, then
// obtain per-node Clients to issue operations.
type Cluster struct {
	net transport.Transport
	cfg Config
	// wantRF is the requested replication factor before clamping, so a
	// later epoch with more nodes can restore the full factor.
	wantRF int
	place  atomic.Pointer[epochView]

	// hist retains recent epochs' rings (including the current one) so a
	// replica adopting a grant issued under an older epoch can re-derive
	// that epoch's placement. Bounded to ringHistory entries —
	// reconfigurations are rare, and a grant old enough to fall off the
	// window is refused adoption conservatively.
	histMu sync.Mutex
	hist   map[int64]*ring
	// histSeeded marks the construction-time hist entry, which is labeled
	// epoch 1 on faith. A process built mid-life (a joiner fast-forwarding
	// straight to a later epoch) proves that label wrong on its first
	// non-consecutive apply, and the entry is dropped.
	histSeeded bool

	replicas map[transport.NodeID]*replica

	// clocks stripes the monotonic timestamp/ballot mint by key shard so
	// writes to different shards never serialize on one mutex. Monotonicity
	// is only required per key (LWW merge and Paxos ballots are per-row
	// state), so independent stripes are safe.
	clocks []clockStripe
}

// clockStripe is one shard's timestamp/ballot mint.
type clockStripe struct {
	mu   sync.Mutex
	last uint64
	_    [40]byte // pad to a cache line so stripes don't false-share
}

// New builds a store cluster over tr and registers its replica services on
// every local node.
func New(tr transport.Transport, cfg Config) *Cluster {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = tr.Nodes()
	}
	if len(cfg.LocalNodes) == 0 {
		cfg.LocalNodes = cfg.Nodes
	}
	if cfg.RF == 0 {
		cfg.RF = 3
	}
	wantRF := cfg.RF
	if cfg.RF > len(cfg.Nodes) {
		cfg.RF = len(cfg.Nodes)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = tr.RPCTimeout()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	c := &Cluster{
		net:      tr,
		cfg:      cfg,
		wantRF:   wantRF,
		replicas: make(map[transport.NodeID]*replica, len(cfg.LocalNodes)),
		clocks:   make([]clockStripe, cfg.Shards),
	}
	// Fixed-membership clusters (no cfg.Members) keep the historical
	// site-interleaved modulo placement, byte-identical to what every
	// pinned fault/explorer seed was recorded against. Dynamic clusters
	// seed epoch 1 from the explicit member list on the consistent-hash
	// circle so later epochs move a bounded key fraction.
	if len(cfg.Members) == 0 {
		c.place.Store(&epochView{epoch: 1, ring: buildRing(tr, cfg.Nodes, cfg.RF)})
	} else {
		rf := wantRF
		if rf > len(cfg.Members) {
			rf = len(cfg.Members)
		}
		c.place.Store(&epochView{epoch: 1, ring: buildRingMembers(cfg.Members, rf)})
	}
	c.hist = map[int64]*ring{1: &c.place.Load().ring}
	c.histSeeded = true
	for _, id := range cfg.LocalNodes {
		r := newReplica(cfg.Shards)
		c.replicas[id] = r
		r.register(tr, id)
		c.registerTransfer(id, r)
	}
	return c
}

// ringNow returns the current epoch's placement.
func (c *Cluster) ringNow() *ring { return &c.place.Load().ring }

// Epoch returns the membership epoch placement currently follows.
func (c *Cluster) Epoch() int64 { return c.place.Load().epoch }

// ApplyMembership recomputes placement for a new membership epoch. Stale
// or duplicate epochs are ignored, so delivery order across subscribers
// doesn't matter. Placement changes take effect atomically: in-flight
// operations finish under the ring they started with.
func (c *Cluster) ApplyMembership(epoch int64, members []RingNode) {
	rf := c.wantRF
	if rf > len(members) {
		rf = len(members)
	}
	for {
		cur := c.place.Load()
		if epoch <= cur.epoch {
			return
		}
		next := &epochView{epoch: epoch, ring: buildRingMembers(members, rf)}
		if c.place.CompareAndSwap(cur, next) {
			c.histMu.Lock()
			if c.histSeeded {
				c.histSeeded = false
				if epoch != 2 {
					delete(c.hist, 1)
				}
			}
			c.hist[epoch] = &next.ring
			for e := range c.hist {
				if e <= epoch-ringHistory {
					delete(c.hist, e)
				}
			}
			c.histMu.Unlock()
			return
		}
	}
}

// ringHistory bounds how many past epochs' rings ReplicasForAt can answer
// for.
const ringHistory = 16

// ReplicasForAt returns key's replica set under a specific (possibly past)
// membership epoch, with ok=false when the epoch predates this process or
// fell off the bounded ring history. Core uses it to certify adopting a
// grant issued under an older epoch: adoption is sound only if the key's
// replica set is unchanged between the grant's epoch and now.
func (c *Cluster) ReplicasForAt(key string, epoch int64) ([]transport.NodeID, bool) {
	c.histMu.Lock()
	r, ok := c.hist[epoch]
	c.histMu.Unlock()
	if !ok {
		return nil, false
	}
	return r.replicasFor(key), true
}

// SitePlaced reports whether the current epoch places a replica of key in
// site — the check core's epoch fence uses to decide whether a grant
// issued under an older epoch may keep running at its site.
func (c *Cluster) SitePlaced(key, site string) bool {
	return c.ringNow().placesSite(key, site)
}

// MemberSite reports whether the current epoch's membership includes any
// node in site. Retired (and not-yet-joined) sites must stop serving
// critical sections; core's epoch fence consults this.
func (c *Cluster) MemberSite(site string) bool {
	for _, s := range c.ringNow().sites {
		if s == site {
			return true
		}
	}
	return false
}

// Dynamic reports whether this cluster uses epoch-versioned consistent-hash
// placement (Config.Members / ApplyMembership) rather than the historical
// fixed-membership modulo walk. Epoch-sensitive checks in higher layers are
// inert on static clusters, whose epoch never leaves 1.
func (c *Cluster) Dynamic() bool { return c.ringNow().cons != nil }

// MemberNodes returns the node IDs in the current placement epoch.
func (c *Cluster) MemberNodes() []transport.NodeID { return c.ringNow().nodes() }

// Shards returns the configured shard count (≥ 1).
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Net returns the underlying transport.
func (c *Cluster) Net() transport.Transport { return c.net }

// Nodes returns the store nodes.
func (c *Cluster) Nodes() []transport.NodeID { return append([]transport.NodeID(nil), c.cfg.Nodes...) }

// RF returns the effective replication factor of the current epoch.
func (c *Cluster) RF() int { return c.ringNow().rf }

// ReplicasFor returns the nodes holding key (exposed for tests and for the
// lock store's local peek).
func (c *Cluster) ReplicasFor(key string) []transport.NodeID {
	return c.ringNow().replicasFor(key)
}

// NowMicros returns the cluster clock in microseconds, used to timestamp
// plain writes.
func (c *Cluster) NowMicros() int64 { return int64(c.net.Runtime().Now() / time.Microsecond) }

// nextWriteTS returns a per-shard-monotonic microsecond timestamp for plain
// writes to key, so two back-to-back writes to the same key never tie on
// timestamp.
func (c *Cluster) nextWriteTS(key string) int64 {
	s := &c.clocks[ShardOf(key, len(c.clocks))]
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(c.NowMicros())
	if n <= s.last {
		n = s.last + 1
	}
	s.last = n
	return int64(n)
}

// nextBallot mints a monotonically increasing ballot for a coordinator's
// CAS on key.
func (c *Cluster) nextBallot(key string, node transport.NodeID, atLeast uint64) paxos.Ballot {
	s := &c.clocks[ShardOf(key, len(c.clocks))]
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(c.NowMicros())
	if n <= s.last {
		n = s.last + 1
	}
	if n <= atLeast {
		n = atLeast + 1
	}
	s.last = n
	return paxos.Ballot{Counter: n, Node: int32(node)}
}
