// Package raft implements leader-based log replication after "In Search of
// an Understandable Consensus Algorithm" (Ongaro & Ousterhout): randomized
// election timeouts, RequestVote, AppendEntries with heartbeats, quorum
// commit and in-order apply. It is the consensus substrate for the
// CockroachDB-style transactional store (internal/crdb) that the paper
// compares MUSIC against (§VIII-d) and for the cluster-membership config
// log (internal/membership) that drives live reconfiguration.
//
// The group runs over any transport.Transport: the simulated network for
// single-process deployments and internal/nettrans for a group whose peers
// live in different OS processes. In the multi-process case each process
// passes the peers it hosts in Config.LocalNodes; message codecs are
// registered in wire.go so every RPC crosses the real wire.
//
// Log compaction and snapshot transfer are out of scope — the evaluation
// workloads never restart from a truncated log, and the config log stays
// tiny.
package raft

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Service names.
const (
	svcRequestVote   = "raft.requestVote"
	svcAppendEntries = "raft.appendEntries"
	svcPropose       = "raft.propose"
)

// Errors returned by Propose.
var (
	// ErrNotLeader reports the contacted peer is not the leader; the
	// response carries a hint when one is known.
	ErrNotLeader = errors.New("raft: not the leader")
	// ErrTimeout means the proposal was not committed in time (no leader,
	// partitioned minority, lost quorum).
	ErrTimeout = errors.New("raft: proposal timed out")
)

// Entry is one log entry.
type Entry struct {
	Term uint64
	Data any
	Size int
}

// Apply delivers committed entries, in log order, on every local peer.
type Apply func(peer transport.NodeID, index uint64, e Entry)

// Config describes a Raft group.
type Config struct {
	// Nodes is the full group membership (every process lists the same
	// set). Defaults to all transport nodes.
	Nodes []transport.NodeID
	// LocalNodes is the subset of Nodes hosted by this process; handlers
	// and tickers are only started for these. Defaults to Nodes (the
	// single-process case).
	LocalNodes []transport.NodeID
	Apply      Apply
	// ElectionTimeout is the base follower timeout (randomized 1x-2x).
	// Defaults to 1.5s (comfortably above WAN RTTs).
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's replication cadence. Defaults to
	// 300ms.
	HeartbeatInterval time.Duration
	// ProposeTimeout bounds one proposal. Defaults to the transport RPC
	// timeout.
	ProposeTimeout time.Duration
	// MsgCost is the per-message CPU cost. Defaults to 100µs.
	MsgCost time.Duration
	// PerKB is the added CPU cost per payload KiB. Defaults to 1.5µs.
	PerKB time.Duration
}

// Cluster is a Raft group over a transport.Transport. It holds peer state
// only for the nodes this process hosts (Config.LocalNodes).
type Cluster struct {
	tr    transport.Transport
	cfg   Config
	peers map[transport.NodeID]*peer

	mu      sync.Mutex
	stopped bool
}

// Stop halts the peers' background tickers (needed in real-time mode; the
// virtual runtime unwinds abandoned tasks itself).
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
}

func (c *Cluster) isStopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

type role int

const (
	follower role = iota + 1
	candidate
	leader
)

type peer struct {
	c  *Cluster
	id transport.NodeID

	mu sync.Mutex
	// Persistent state (survives Crash/Restart, like disk).
	term     uint64
	votedFor transport.NodeID // -1 none
	log      []Entry          // log[0] is a sentinel

	// Volatile state.
	role        role
	leaderHint  transport.NodeID // -1 unknown
	commitIdx   uint64
	lastApplied uint64
	deadline    time.Duration // election deadline
	nextIndex   map[transport.NodeID]uint64
	matchIndex  map[transport.NodeID]uint64
	waiters     map[uint64]*waitEntry
}

type waitEntry struct {
	term uint64
	done *sim.Promise[bool]
}

// New builds and starts a Raft group over tr, hosting the peers named in
// cfg.LocalNodes (all of cfg.Nodes by default).
func New(tr transport.Transport, cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = tr.Nodes()
	}
	if len(cfg.LocalNodes) == 0 {
		cfg.LocalNodes = cfg.Nodes
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 1500 * time.Millisecond
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 300 * time.Millisecond
	}
	if cfg.ProposeTimeout == 0 {
		cfg.ProposeTimeout = tr.RPCTimeout()
	}
	if cfg.MsgCost == 0 {
		cfg.MsgCost = 100 * time.Microsecond
	}
	if cfg.PerKB == 0 {
		cfg.PerKB = 1500 * time.Nanosecond
	}

	c := &Cluster{tr: tr, cfg: cfg, peers: make(map[transport.NodeID]*peer, len(cfg.LocalNodes))}
	rt := tr.Runtime()
	for _, id := range cfg.LocalNodes {
		if !containsNode(cfg.Nodes, id) {
			return nil, fmt.Errorf("raft: local node %d not in group %v", id, cfg.Nodes)
		}
		p := &peer{
			c:          c,
			id:         id,
			votedFor:   -1,
			log:        make([]Entry, 1),
			role:       follower,
			leaderHint: -1,
			nextIndex:  make(map[transport.NodeID]uint64),
			matchIndex: make(map[transport.NodeID]uint64),
			waiters:    make(map[uint64]*waitEntry),
		}
		c.peers[id] = p
		tr.HandleWithCost(id, svcRequestVote, p.handleRequestVote, cfg.MsgCost, 0)
		tr.HandleWithCost(id, svcAppendEntries, p.handleAppendEntries, cfg.MsgCost, cfg.PerKB)
		tr.HandleWithCost(id, svcPropose, p.handlePropose, cfg.MsgCost, cfg.PerKB)
		tr.OnRestart(id, p.onRestart)
		p.resetDeadline()
		rt.Go(p.ticker)
	}
	return c, nil
}

func containsNode(ids []transport.NodeID, id transport.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Leader returns the local node currently believed to lead, or -1. In a
// multi-process group only a peer hosted here can be reported.
func (c *Cluster) Leader() transport.NodeID {
	for _, p := range c.peers {
		p.mu.Lock()
		isLeader := p.role == leader
		p.mu.Unlock()
		if isLeader {
			return p.id
		}
	}
	return -1
}

// WaitForLeader blocks until some local peer leads (tests, warmup).
func (c *Cluster) WaitForLeader(timeout time.Duration) (transport.NodeID, error) {
	rt := c.tr.Runtime()
	deadline := rt.Now() + timeout
	for rt.Now() < deadline {
		if id := c.Leader(); id >= 0 {
			return id, nil
		}
		rt.Sleep(20 * time.Millisecond)
	}
	return -1, fmt.Errorf("raft: no leader within %v", timeout)
}

// proposeReq carries a client proposal to the leader.
type proposeReq struct {
	Data any
	Size int
}

func (r proposeReq) WireSize() int { return r.Size + 16 }

type proposeResp struct {
	Index uint64
	Hint  transport.NodeID
	Err   string
}

// Propose submits data for replication via the peer at `from` (forwarding
// to the leader if needed) and returns the committed log index.
func (c *Cluster) Propose(from transport.NodeID, data any, size int) (index uint64, err error) {
	sp := c.tr.Tracer().Child("raft.propose")
	defer func() { sp.EndErr(err) }()
	target := from
	for attempt := 0; attempt < 8; attempt++ {
		resp, err := c.tr.CallTimeout(from, target, svcPropose,
			proposeReq{Data: data, Size: size}, c.cfg.ProposeTimeout)
		if err != nil {
			c.tr.Runtime().Sleep(100 * time.Millisecond)
			target = c.nextTarget(target)
			continue
		}
		pr := resp.(proposeResp)
		switch {
		case pr.Err == "":
			sp.Annotatef("leader", "n%d (attempt %d)", target, attempt)
			return pr.Index, nil
		case pr.Hint >= 0:
			target = pr.Hint
		default:
			c.tr.Runtime().Sleep(150 * time.Millisecond)
			target = c.nextTarget(target)
		}
	}
	return 0, ErrTimeout
}

func (c *Cluster) nextTarget(cur transport.NodeID) transport.NodeID {
	for i, id := range c.cfg.Nodes {
		if id == cur {
			return c.cfg.Nodes[(i+1)%len(c.cfg.Nodes)]
		}
	}
	return c.cfg.Nodes[0]
}

// handlePropose runs at any peer; only the leader appends and replicates.
func (p *peer) handlePropose(from transport.NodeID, req any) (any, error) {
	m := req.(proposeReq)
	p.mu.Lock()
	if p.role != leader {
		hint := p.leaderHint
		p.mu.Unlock()
		return proposeResp{Hint: hint, Err: ErrNotLeader.Error()}, nil
	}
	entry := Entry{Term: p.term, Data: m.Data, Size: m.Size}
	p.log = append(p.log, entry)
	index := uint64(len(p.log) - 1)
	p.matchIndex[p.id] = index
	done := sim.NewPromise[bool](p.c.tr.Runtime())
	p.waiters[index] = &waitEntry{term: p.term, done: done}
	p.mu.Unlock()

	// The append span covers replication fan-out plus the in-order commit
	// wait — the leader-pipeline residence time of this entry.
	ap := p.c.tr.Tracer().Child("raft.leader.append")
	ap.Annotatef("index", "%d", index)
	p.replicateAll()

	committed, err := done.AwaitTimeout(p.c.cfg.ProposeTimeout)
	if err != nil || !committed {
		ap.EndErr(ErrTimeout)
		return proposeResp{Hint: -1, Err: ErrTimeout.Error()}, nil
	}
	ap.End()
	return proposeResp{Index: index}, nil
}

// ticker drives elections (followers/candidates) and heartbeats (leader).
func (p *peer) ticker() {
	rt := p.c.tr.Runtime()
	for !p.c.isStopped() {
		rt.Sleep(p.c.cfg.HeartbeatInterval / 3)
		p.mu.Lock()
		r := p.role
		expired := rt.Now() >= p.deadline
		p.mu.Unlock()

		switch {
		case r == leader:
			p.replicateAll()
		case expired:
			p.startElection()
		}
	}
}

func (p *peer) resetDeadline() {
	rt := p.c.tr.Runtime()
	jitter := time.Duration(rt.Rand().Int63n(int64(p.c.cfg.ElectionTimeout)))
	p.deadline = rt.Now() + p.c.cfg.ElectionTimeout + jitter
}

// Vote RPCs.

type voteReq struct {
	Term         uint64
	Candidate    transport.NodeID
	LastLogIndex uint64
	LastLogTerm  uint64
}

type voteResp struct {
	Term    uint64
	Granted bool
}

func (p *peer) startElection() {
	rt := p.c.tr.Runtime()
	p.mu.Lock()
	p.role = candidate
	p.term++
	p.votedFor = p.id
	p.resetDeadline()
	req := voteReq{
		Term:         p.term,
		Candidate:    p.id,
		LastLogIndex: uint64(len(p.log) - 1),
		LastLogTerm:  p.log[len(p.log)-1].Term,
	}
	p.mu.Unlock()

	votes := 1
	quorum := len(p.c.cfg.Nodes)/2 + 1
	results := sim.NewMailbox[voteResp](rt)
	for _, id := range p.c.cfg.Nodes {
		if id == p.id {
			continue
		}
		id := id
		rt.Go(func() {
			resp, err := p.c.tr.CallTimeout(p.id, id, svcRequestVote, req, p.c.cfg.ElectionTimeout)
			if err != nil {
				return
			}
			results.Send(resp.(voteResp))
		})
	}
	deadline := rt.Now() + p.c.cfg.ElectionTimeout
	for votes < quorum {
		remaining := deadline - rt.Now()
		if remaining <= 0 {
			return // election failed; ticker will retry
		}
		r, err := results.RecvTimeout(remaining)
		if err != nil {
			return
		}
		p.mu.Lock()
		if r.Term > p.term {
			p.stepDown(r.Term)
			p.mu.Unlock()
			return
		}
		stillCandidate := p.role == candidate && p.term == req.Term
		p.mu.Unlock()
		if !stillCandidate {
			return
		}
		if r.Granted {
			votes++
		}
	}
	p.becomeLeader(req.Term)
}

func (p *peer) becomeLeader(term uint64) {
	p.mu.Lock()
	if p.role != candidate || p.term != term {
		p.mu.Unlock()
		return
	}
	p.role = leader
	p.leaderHint = p.id
	last := uint64(len(p.log) - 1)
	for _, id := range p.c.cfg.Nodes {
		p.nextIndex[id] = last + 1
		p.matchIndex[id] = 0
	}
	p.matchIndex[p.id] = last
	p.mu.Unlock()
	p.replicateAll()
}

// stepDown reverts to follower at a newer term. Caller holds p.mu.
func (p *peer) stepDown(term uint64) {
	if term > p.term {
		p.term = term
		p.votedFor = -1
	}
	p.role = follower
	p.resetDeadline()
	p.failWaitersLocked()
}

func (p *peer) failWaitersLocked() {
	for idx, w := range p.waiters {
		w.done.Resolve(false)
		delete(p.waiters, idx)
	}
}

func (p *peer) handleRequestVote(from transport.NodeID, req any) (any, error) {
	m := req.(voteReq)
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Term > p.term {
		p.stepDown(m.Term)
	}
	if m.Term < p.term {
		return voteResp{Term: p.term}, nil
	}
	upToDate := m.LastLogTerm > p.log[len(p.log)-1].Term ||
		(m.LastLogTerm == p.log[len(p.log)-1].Term && m.LastLogIndex >= uint64(len(p.log)-1))
	if (p.votedFor == -1 || p.votedFor == m.Candidate) && upToDate {
		p.votedFor = m.Candidate
		p.resetDeadline()
		return voteResp{Term: p.term, Granted: true}, nil
	}
	return voteResp{Term: p.term}, nil
}

// Replication RPCs.

type appendReq struct {
	Term         uint64
	Leader       transport.NodeID
	PrevIndex    uint64
	PrevTerm     uint64
	Entries      []Entry
	LeaderCommit uint64
}

func (r appendReq) WireSize() int {
	n := 0
	for _, e := range r.Entries {
		n += e.Size + 24
	}
	return n
}

type appendResp struct {
	Term    uint64
	Success bool
	Match   uint64
}

// replicateAll pushes log suffixes (or heartbeats) to every follower.
func (p *peer) replicateAll() {
	rt := p.c.tr.Runtime()
	for _, id := range p.c.cfg.Nodes {
		if id == p.id {
			continue
		}
		id := id
		rt.Go(func() { p.replicateTo(id) })
	}
}

func (p *peer) replicateTo(id transport.NodeID) {
	p.mu.Lock()
	if p.role != leader {
		p.mu.Unlock()
		return
	}
	next := p.nextIndex[id]
	if next == 0 {
		next = 1
	}
	if next > uint64(len(p.log)) {
		next = uint64(len(p.log))
	}
	req := appendReq{
		Term:         p.term,
		Leader:       p.id,
		PrevIndex:    next - 1,
		PrevTerm:     p.log[next-1].Term,
		Entries:      append([]Entry(nil), p.log[next:]...),
		LeaderCommit: p.commitIdx,
	}
	p.mu.Unlock()

	resp, err := p.c.tr.CallTimeout(p.id, id, svcAppendEntries, req, p.c.cfg.ProposeTimeout)
	if err != nil {
		return
	}
	ar := resp.(appendResp)

	p.mu.Lock()
	defer p.mu.Unlock()
	if ar.Term > p.term {
		p.stepDown(ar.Term)
		return
	}
	if p.role != leader || ar.Term < p.term {
		return
	}
	if !ar.Success {
		if p.nextIndex[id] > 1 {
			p.nextIndex[id]--
		}
		return
	}
	p.matchIndex[id] = ar.Match
	p.nextIndex[id] = ar.Match + 1
	p.advanceCommitLocked()
}

// advanceCommitLocked moves commitIdx to the highest current-term index
// replicated on a quorum, resolving waiters and applying entries.
func (p *peer) advanceCommitLocked() {
	quorum := len(p.c.cfg.Nodes)/2 + 1
	for n := uint64(len(p.log) - 1); n > p.commitIdx; n-- {
		if p.log[n].Term != p.term {
			continue
		}
		count := 0
		for _, id := range p.c.cfg.Nodes {
			if p.matchIndex[id] >= n {
				count++
			}
		}
		if count >= quorum {
			p.commitIdx = n
			break
		}
	}
	for idx, w := range p.waiters {
		if idx <= p.commitIdx {
			ok := w.term == p.log[idx].Term
			w.done.Resolve(ok)
			delete(p.waiters, idx)
		}
	}
	p.applyLocked()
}

func (p *peer) applyLocked() {
	for p.lastApplied < p.commitIdx {
		p.lastApplied++
		if p.c.cfg.Apply != nil {
			idx, e := p.lastApplied, p.log[p.lastApplied]
			// Release the lock during user callbacks.
			p.mu.Unlock()
			p.c.cfg.Apply(p.id, idx, e)
			p.mu.Lock()
		}
	}
}

func (p *peer) handleAppendEntries(from transport.NodeID, req any) (any, error) {
	m := req.(appendReq)
	p.mu.Lock()
	if m.Term < p.term {
		resp := appendResp{Term: p.term}
		p.mu.Unlock()
		return resp, nil
	}
	if m.Term > p.term || p.role != follower {
		p.stepDown(m.Term)
	}
	p.leaderHint = m.Leader
	p.resetDeadline()

	if m.PrevIndex >= uint64(len(p.log)) || p.log[m.PrevIndex].Term != m.PrevTerm {
		resp := appendResp{Term: p.term}
		p.mu.Unlock()
		return resp, nil
	}
	// Append new entries, truncating conflicts.
	for i, e := range m.Entries {
		idx := m.PrevIndex + 1 + uint64(i)
		if idx < uint64(len(p.log)) {
			if p.log[idx].Term != e.Term {
				p.log = p.log[:idx]
				p.log = append(p.log, e)
			}
			continue
		}
		p.log = append(p.log, e)
	}
	match := m.PrevIndex + uint64(len(m.Entries))
	if m.LeaderCommit > p.commitIdx {
		last := uint64(len(p.log) - 1)
		p.commitIdx = min64(m.LeaderCommit, last)
	}
	p.applyLocked()
	resp := appendResp{Term: p.term, Success: true, Match: match}
	p.mu.Unlock()
	return resp, nil
}

// onRestart resets volatile state after a crash (persistent state —
// term, vote, log — survives, as if read back from disk).
func (p *peer) onRestart() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.role = follower
	p.leaderHint = -1
	p.resetDeadline()
	p.failWaitersLocked()
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
