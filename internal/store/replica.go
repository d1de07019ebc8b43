package store

import (
	"sync"

	"repro/internal/paxos"
	"repro/internal/transport"
)

// Service names registered by each replica.
const (
	svcApply   = "store.apply"
	svcRead    = "store.read"
	svcScan    = "store.scan"
	svcPrepare = "store.prepare"
	svcPropose = "store.propose"
	svcCommit  = "store.commit"
)

// Wire messages. Every one of them has a binary codec in wire.go, so the
// transport charges exact encoded sizes and can carry them across processes;
// none needs a Sizer estimate.

type applyReq struct {
	Table, Key string
	Cells      Row
}

type readReq struct {
	Table, Key string
	Cols       []string // nil = all columns
}

type readResp struct {
	Cells Row // nil when the row does not exist
}

type scanReq struct {
	Table string
}

type scanResp struct {
	Keys []string
}

type prepareReq struct {
	Table, Key string
	B          paxos.Ballot
}

type prepareResp struct {
	paxos.PrepareResponse
}

type proposeReq struct {
	Table, Key string
	B          paxos.Ballot
	Update     Row
}

type proposeResp struct {
	OK bool
}

type commitReq struct {
	Table, Key string
	B          paxos.Ballot
	Update     Row
}

// replica is the per-node storage engine: tables of rows plus per-row Paxos
// acceptor state. State survives Crash/Restart (it models durable storage).
// The engine is striped by key shard — each stripe has its own mutex and
// its own table maps — so concurrent operations on keys in different shards
// never contend.
type replica struct {
	stripes []engineStripe
}

type engineStripe struct {
	mu     sync.Mutex
	tables map[string]map[string]*rowState
}

type rowState struct {
	cells Row
	ax    paxos.Acceptor
	// watchers are the parked waits for this row to change (watch.go);
	// nil on every row nobody is waiting on.
	watchers []*Watch
}

func newReplica(shards int) *replica {
	if shards <= 0 {
		shards = 1
	}
	r := &replica{stripes: make([]engineStripe, shards)}
	for i := range r.stripes {
		r.stripes[i].tables = make(map[string]map[string]*rowState)
	}
	return r
}

// stripe returns the engine stripe owning key. The single-stripe fast path
// skips hashing so unsharded deployments pay nothing.
func (r *replica) stripe(key string) *engineStripe {
	if len(r.stripes) == 1 {
		return &r.stripes[0]
	}
	return &r.stripes[ShardOf(key, len(r.stripes))]
}

// register installs the replica's services on node with their CPU costs.
//
// The per-row services are registered inline where the transport offers it
// (transport.InlineHandler): each one takes one stripe lock, works on one row
// in memory and returns, and the only thing it can wake — a Watch's promise in
// rowState.merge — resolves without blocking. None of them waits, so the TCP
// plane may serve them on the connection's read loop. The whole-table scan
// and the transfer responder (transfer.go) keep a goroutine each.
func (r *replica) register(tr transport.Transport, node transport.NodeID) {
	perRow := tr.HandleWithCost
	if ih, ok := tr.(transport.InlineHandler); ok {
		perRow = ih.HandleInline
	}
	perRow(node, svcApply, r.handleApply, costReplicaApply, costPerKB)
	perRow(node, svcRead, r.handleRead, costReplicaRead, costPerKB)
	perRow(node, svcPrepare, r.handlePrepare, costPaxosMsg, 0)
	perRow(node, svcPropose, r.handlePropose, costPaxosMsg, costPerKB)
	perRow(node, svcCommit, r.handleCommit, costPaxosMsg, costPerKB)
	tr.HandleWithCost(node, svcScan, r.handleScan, costReplicaRead, 0)
}

// row returns the row state within a stripe, creating it when create is set.
// The caller must hold s.mu.
func (s *engineStripe) row(table, key string, create bool) *rowState {
	t, ok := s.tables[table]
	if !ok {
		if !create {
			return nil
		}
		t = make(map[string]*rowState)
		s.tables[table] = t
	}
	rs, ok := t[key]
	if !ok {
		if !create {
			return nil
		}
		rs = &rowState{cells: make(Row)}
		t[key] = rs
	}
	return rs
}

func (r *replica) handleApply(from transport.NodeID, req any) (any, error) {
	m := req.(applyReq)
	s := r.stripe(m.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.row(m.Table, m.Key, true).merge(m.Cells)
	return nil, nil
}

func (r *replica) handleRead(from transport.NodeID, req any) (any, error) {
	m := req.(readReq)
	s := r.stripe(m.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.row(m.Table, m.Key, false)
	if rs == nil {
		return readResp{}, nil
	}
	if m.Cols == nil {
		return readResp{Cells: rs.cells.clone()}, nil
	}
	out := make(Row, len(m.Cols))
	for _, col := range m.Cols {
		if c, ok := rs.cells[col]; ok {
			out[col] = c
		}
	}
	return readResp{Cells: out}, nil
}

func (r *replica) handleScan(from transport.NodeID, req any) (any, error) {
	m := req.(scanReq)
	var keys []string
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for key, rs := range s.tables[m.Table] {
			for _, c := range rs.cells {
				if !c.Deleted {
					keys = append(keys, key)
					break
				}
			}
		}
		s.mu.Unlock()
	}
	return scanResp{Keys: keys}, nil
}

func (r *replica) handlePrepare(from transport.NodeID, req any) (any, error) {
	m := req.(prepareReq)
	s := r.stripe(m.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.row(m.Table, m.Key, true)
	return prepareResp{rs.ax.HandlePrepare(m.B)}, nil
}

func (r *replica) handlePropose(from transport.NodeID, req any) (any, error) {
	m := req.(proposeReq)
	s := r.stripe(m.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.row(m.Table, m.Key, true)
	return proposeResp{OK: rs.ax.HandlePropose(m.B, m.Update)}, nil
}

func (r *replica) handleCommit(from transport.NodeID, req any) (any, error) {
	m := req.(commitReq)
	s := r.stripe(m.Key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.row(m.Table, m.Key, true)
	// The acceptor only tracks the newest committed ballot; the cells are
	// applied whether or not this commit is news to it. A commit is sent only
	// for a value a quorum accepted, under stamps its coordinator fixed, so
	// applying it is always right, and LWW makes it idempotent and
	// order-free. Skipping a commit that a later CAS's commit overtook on the
	// way here (on the wall-clock transports delivery order is goroutine
	// scheduling) lost every column the later update did not also write —
	// an enqueue's guard cell behind a dequeue's queue-only commit — and two
	// replicas missing the same guard let a serial read mint a lockRef twice.
	rs.ax.HandleCommit(m.B)
	rs.merge(commitCells(m))
	return nil, nil
}

// commitCells returns the cells a commit applies. They arrive stamped by the
// coordinator (CAS stamps from the ballot counter before propose, so every
// replica stores an identical cell) and are then merged as they are. The
// ballot-counter fallback only covers a value that somehow reached commit
// unstamped; it must NOT consult local state — per-replica bumps made one
// logical write carry divergent stamps, which quorum LWW merges turned into
// row regressions.
func commitCells(m commitReq) Row {
	cells, copied := m.Update, false
	for col, c := range m.Update {
		if c.TS != 0 {
			continue
		}
		if !copied {
			cells, copied = m.Update.clone(), true
		}
		c.TS = int64(m.B.Counter)
		cells[col] = c
	}
	return cells
}

// dump returns a copy of a row's cells for tests.
func (r *replica) dump(table, key string) Row {
	s := r.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.row(table, key, false)
	if rs == nil {
		return nil
	}
	return rs.cells.clone()
}
