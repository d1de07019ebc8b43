// Package zab implements a ZooKeeper-style leader-based atomic broadcast
// (after "A simple totally ordered broadcast protocol", Reed & Junqueira):
// all writes funnel through a stable leader, which assigns them increasing
// zxids, replicates them to followers, and commits each once a quorum has
// acknowledged it — in strict zxid order. Proposals pipeline (many can be
// in flight) but the leader's CPU and egress NIC are shared bottlenecks,
// which is precisely the queueing behaviour the paper credits for
// ZooKeeper's throughput collapse at large batch and data sizes (§VIII-c).
//
// The znode data model lives above this in internal/zk.
package zab

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Service names.
const (
	svcForward = "zab.forward"
	svcPropose = "zab.propose"
	svcCommit  = "zab.commit"
)

// ErrUnavailable means the leader could not assemble a quorum in time.
var ErrUnavailable = errors.New("zab: quorum unavailable")

// Txn is one totally ordered transaction delivered to the state machine.
type Txn struct {
	Zxid uint64
	Data any
	Size int
}

func (t Txn) WireSize() int { return t.Size + 16 }

// Apply is invoked on every server, in zxid order, once a txn commits.
type Apply func(server simnet.NodeID, txn Txn)

// costModel sets per-message CPU costs plus the transaction-log fsync that
// ZooKeeper performs for every proposal before acknowledging it. The fsync
// is a serial per-server disk resource: proposals queue behind each other,
// which caps the ensemble's write throughput independently of CPU and
// network — the paper's "queueing effects of consensus writes" (§VIII-c).
type costModel struct {
	LeaderPropose time.Duration // leader work per proposal
	FollowerAck   time.Duration // follower work per proposal
	ServerRead    time.Duration // local read work
	PerKB         time.Duration
	FsyncBase     time.Duration // txn-log fsync per proposal
	FsyncPerKB    time.Duration // txn-log write time per payload KiB
}

var defaultCosts = costModel{
	LeaderPropose: 260 * time.Microsecond,
	FollowerAck:   110 * time.Microsecond,
	ServerRead:    90 * time.Microsecond,
	PerKB:         1500 * time.Nanosecond,
	FsyncBase:     330 * time.Microsecond,
	FsyncPerKB:    5 * time.Microsecond, // ~200 MB/s sequential log
}

// Config describes a broadcast group.
type Config struct {
	// Nodes lists the participating network nodes; the first is the
	// initial (stable) leader, matching the paper's observation of a
	// stable ZooKeeper leader throughout its runs.
	Nodes []simnet.NodeID
	// Apply receives committed txns on every server.
	Apply Apply
}

// Cluster is a Zab broadcast group. The network's RPC timeout bounds each
// replication round.
type Cluster struct {
	net     *simnet.Network
	cfg     Config
	costs   costModel
	servers map[simnet.NodeID]*server
	leader  simnet.NodeID
}

type server struct {
	c    *Cluster
	id   simnet.NodeID
	node *simnet.Node

	mu        sync.Mutex
	lastZxid  uint64         // leader: last assigned
	acks      map[uint64]int // leader: proposal → ack count
	waiters   map[uint64]*sim.Promise[struct{}]
	committed uint64 // leader: highest committed (commits are in order)

	applied  uint64         // all servers: highest applied zxid
	pending  map[uint64]Txn // all servers: accepted, not yet committed here
	diskBusy time.Duration  // txn-log serialization point
}

// fsync models the per-proposal transaction-log sync: a serial disk whose
// queue the calling task waits in.
func (s *server) fsync(size int) {
	costs := s.c.costs
	rt := s.c.net.Runtime()
	sp := s.c.net.Tracer().Child("zab.fsync")
	defer sp.End()
	dur := costs.FsyncBase + time.Duration(float64(costs.FsyncPerKB)*float64(size)/1024)
	s.mu.Lock()
	start := rt.Now()
	if s.diskBusy > start {
		start = s.diskBusy
	}
	s.diskBusy = start + dur
	wait := s.diskBusy - rt.Now()
	s.mu.Unlock()
	rt.Sleep(wait)
}

// New builds a Zab group over the given nodes.
func New(net *simnet.Network, cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = net.Nodes()
	}
	c := &Cluster{
		net:     net,
		cfg:     cfg,
		costs:   defaultCosts,
		servers: make(map[simnet.NodeID]*server, len(cfg.Nodes)),
		leader:  cfg.Nodes[0],
	}
	for _, id := range cfg.Nodes {
		s := &server{
			c:       c,
			id:      id,
			node:    net.Node(id),
			acks:    make(map[uint64]int),
			waiters: make(map[uint64]*sim.Promise[struct{}]),
			pending: make(map[uint64]Txn),
		}
		c.servers[id] = s
		s.node.HandleWithCost(svcForward, s.handleForward, c.costs.LeaderPropose, c.costs.PerKB)
		s.node.HandleWithCost(svcPropose, s.handlePropose, c.costs.FollowerAck, c.costs.PerKB)
		s.node.HandleWithCost(svcCommit, s.handleCommit, c.costs.FollowerAck/2, 0)
	}
	return c, nil
}

// Leader returns the current leader node.
func (c *Cluster) Leader() simnet.NodeID { return c.leader }

// Nodes returns the group members.
func (c *Cluster) Nodes() []simnet.NodeID { return append([]simnet.NodeID(nil), c.cfg.Nodes...) }

// forwardMsg wraps a client write forwarded to the leader.
type forwardMsg struct {
	Data any
	Size int
}

func (m forwardMsg) WireSize() int { return m.Size + 16 }

type ackMsg struct {
	Zxid uint64
	OK   bool
}

type commitMsg struct {
	Zxid uint64
}

// Submit totally orders data through the group from the given member and
// returns once the transaction has committed. size is the payload size in
// bytes (for bandwidth modeling).
func (c *Cluster) Submit(from simnet.NodeID, data any, size int) (zxid uint64, err error) {
	sp := c.net.Tracer().Child("zab.submit")
	sp.Annotatef("leader", "n%d", c.leader)
	defer func() { sp.EndErr(err) }()
	if from == c.leader {
		return c.servers[c.leader].broadcast(data, size)
	}
	resp, err := c.net.CallTimeout(from, c.leader, svcForward, forwardMsg{Data: data, Size: size}, c.net.RPCTimeout())
	if err != nil {
		return 0, fmt.Errorf("zab submit: %w", err)
	}
	return resp.(uint64), nil
}

// handleForward runs at the leader: broadcast on behalf of a follower.
func (s *server) handleForward(from simnet.NodeID, req any) (any, error) {
	m := req.(forwardMsg)
	return s.broadcast(m.Data, m.Size)
}

// broadcast assigns the next zxid, replicates to followers, and waits for
// the in-order commit of the new transaction.
func (s *server) broadcast(data any, size int) (uint64, error) {
	rt := s.c.net.Runtime()
	bc := s.c.net.Tracer().Child("zab.broadcast")

	// The leader logs and fsyncs the proposal before acking it itself.
	s.fsync(size)

	s.mu.Lock()
	s.lastZxid++
	zxid := s.lastZxid
	txn := Txn{Zxid: zxid, Data: data, Size: size}
	s.acks[zxid] = 1 // self
	done := sim.NewPromise[struct{}](rt)
	s.waiters[zxid] = done
	s.pending[zxid] = txn
	s.mu.Unlock()

	// Replicate to followers; acks drive the in-order commit cursor.
	for _, id := range s.c.cfg.Nodes {
		if id == s.id {
			continue
		}
		id := id
		rt.Go(func() {
			resp, err := s.c.net.CallTimeout(s.id, id, svcPropose, txn, s.c.net.RPCTimeout())
			if err != nil {
				return
			}
			if ack, ok := resp.(ackMsg); ok && ack.OK {
				s.recordAck(ack.Zxid)
			}
		})
	}

	bc.Annotatef("zxid", "%d", zxid)
	if _, err := done.AwaitTimeout(s.c.net.RPCTimeout()); err != nil {
		bc.EndErr(err)
		return 0, fmt.Errorf("zab zxid %d: %w", zxid, ErrUnavailable)
	}
	bc.End()
	return zxid, nil
}

// recordAck counts a follower ack and advances the commit cursor through
// every consecutive quorum-acked proposal (commits are strictly ordered).
func (s *server) recordAck(zxid uint64) {
	quorum := len(s.c.cfg.Nodes)/2 + 1

	s.mu.Lock()
	s.acks[zxid]++
	var toCommit []uint64
	for {
		next := s.committed + 1
		if s.acks[next] < quorum {
			break
		}
		s.committed = next
		delete(s.acks, next)
		toCommit = append(toCommit, next)
	}
	s.mu.Unlock()

	for _, z := range toCommit {
		s.commitLocal(z)
		for _, id := range s.c.cfg.Nodes {
			if id != s.id {
				s.c.net.Send(s.id, id, svcCommit, commitMsg{Zxid: z})
			}
		}
		s.mu.Lock()
		w := s.waiters[z]
		delete(s.waiters, z)
		s.mu.Unlock()
		if w != nil {
			w.Resolve(struct{}{})
		}
	}
}

// handlePropose runs at followers: log + fsync the proposal, then ack.
func (s *server) handlePropose(from simnet.NodeID, req any) (any, error) {
	txn := req.(Txn)
	s.fsync(txn.Size)
	s.mu.Lock()
	s.pending[txn.Zxid] = txn
	s.mu.Unlock()
	return ackMsg{Zxid: txn.Zxid, OK: true}, nil
}

// handleCommit runs at followers: deliver in order.
func (s *server) handleCommit(from simnet.NodeID, req any) (any, error) {
	s.commitLocal(req.(commitMsg).Zxid)
	return nil, nil
}

// commitLocal applies every pending txn up to zxid, strictly in order.
func (s *server) commitLocal(zxid uint64) {
	var ready []Txn
	s.mu.Lock()
	if zxid > s.applied {
		for z := s.applied + 1; z <= zxid; z++ {
			txn, ok := s.pending[z]
			if !ok {
				// A gap: an earlier proposal never reached this follower.
				// Deliver what we have once the gap fills (commit of a
				// later zxid re-triggers this path).
				break
			}
			ready = append(ready, txn)
			delete(s.pending, z)
			s.applied = z
		}
	}
	s.mu.Unlock()

	if s.c.cfg.Apply != nil {
		sort.Slice(ready, func(i, j int) bool { return ready[i].Zxid < ready[j].Zxid })
		for _, txn := range ready {
			s.c.cfg.Apply(s.id, txn)
		}
	}
}

// Applied returns the highest zxid applied at a server (for tests).
func (c *Cluster) Applied(id simnet.NodeID) uint64 {
	s := c.servers[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// ReadWork charges a local read's CPU at the given server (used by the zk
// layer for sequentially consistent local reads).
func (c *Cluster) ReadWork(id simnet.NodeID) {
	c.net.Node(id).Work(c.costs.ServerRead)
}
