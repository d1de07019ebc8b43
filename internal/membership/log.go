package membership

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/raft"
	"repro/internal/transport"
)

// Service names for the RPC surface the config log exposes. Every serving
// node answers Fetch (current membership) and Propose (forward a change
// into the log) — that is how nodes outside the Raft config group, such as
// a site that is in the middle of joining, learn and drive membership.
const (
	svcFetch   = "member.fetch"
	svcPropose = "member.propose"
)

// LogConfig describes a replicated config log.
type LogConfig struct {
	Transport transport.Transport
	// Group is the Raft config group — the seed nodes that replicate the
	// log. Joining sites are *not* added to the group (Keyspace's
	// fixed-master-group pattern); they follow via Fetch.
	Group []transport.NodeID
	// Local is the subset of Group hosted by this process. Defaults to
	// Group (the single-process case).
	Local []transport.NodeID
	// Serve lists additional local non-group nodes that should answer
	// Fetch/Propose by forwarding to the group.
	Serve []transport.NodeID
	// Initial is the epoch-1 membership.
	Initial Membership
}

// Log replicates membership changes through Raft and feeds a View.
type Log struct {
	tr   transport.Transport
	cfg  LogConfig
	rc   *raft.Cluster
	view *View
	// proposeTimeout bounds one proposal end to end: 4x the transport RPC
	// timeout, since a proposal may retry across peers.
	proposeTimeout time.Duration

	mu        sync.Mutex
	lastIndex uint64
	cur       Membership
	outcomes  map[uint64]error // per-index apply results for waiting proposers
}

type fetchReq struct{}

type proposeChangeReq struct {
	Change Change
}

type proposeChangeResp struct {
	Membership Membership
	Err        string
}

// NewLog builds the config log, starts its Raft group for the local
// peers, and registers the Fetch/Propose services.
func NewLog(cfg LogConfig) (*Log, error) {
	if cfg.Transport == nil {
		return nil, errors.New("membership: LogConfig.Transport is required")
	}
	if len(cfg.Group) == 0 {
		return nil, errors.New("membership: LogConfig.Group is required")
	}
	if cfg.Initial.Epoch == 0 {
		return nil, errors.New("membership: LogConfig.Initial must have epoch >= 1")
	}
	if len(cfg.Local) == 0 {
		cfg.Local = cfg.Group
	}
	l := &Log{
		tr:             cfg.Transport,
		cfg:            cfg,
		view:           NewView(cfg.Initial),
		proposeTimeout: 4 * cfg.Transport.RPCTimeout(),
		cur:            cfg.Initial.Clone(),
		outcomes:       make(map[uint64]error),
	}
	rc, err := raft.New(cfg.Transport, raft.Config{
		Nodes:          cfg.Group,
		LocalNodes:     cfg.Local,
		Apply:          l.apply,
		ProposeTimeout: l.proposeTimeout,
	})
	if err != nil {
		return nil, err
	}
	l.rc = rc
	for _, id := range append(append([]transport.NodeID(nil), cfg.Local...), cfg.Serve...) {
		id := id
		cfg.Transport.Handle(id, svcFetch, func(from transport.NodeID, req any) (any, error) {
			return l.view.Current(), nil
		})
		cfg.Transport.Handle(id, svcPropose, func(from transport.NodeID, req any) (any, error) {
			m := req.(proposeChangeReq)
			next, err := l.Propose(id, m.Change)
			if err != nil {
				return proposeChangeResp{Err: err.Error()}, nil
			}
			return proposeChangeResp{Membership: next}, nil
		})
	}
	return l, nil
}

// apply consumes committed log entries. With several group peers hosted in
// one process the same index arrives once per peer; lastIndex dedups so
// the View advances exactly once per epoch. An invalid committed change
// (two racing proposals both won a log slot) is skipped deterministically:
// validation depends only on the membership state every peer agrees on.
func (l *Log) apply(peer transport.NodeID, index uint64, e raft.Entry) {
	ch, ok := e.Data.(Change)
	if !ok {
		return
	}
	l.mu.Lock()
	if index <= l.lastIndex {
		l.mu.Unlock()
		return
	}
	l.lastIndex = index
	next, err := l.cur.Apply(ch)
	l.outcomes[index] = err
	if err != nil {
		l.mu.Unlock()
		return
	}
	l.cur = next
	l.mu.Unlock()
	l.view.Set(next)
}

// View returns the view fed by this log.
func (l *Log) View() *View { return l.view }

// Stop halts the underlying Raft tickers (real-time deployments).
func (l *Log) Stop() { l.rc.Stop() }

// Current returns the latest membership this log has applied.
func (l *Log) Current() Membership {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur.Clone()
}

// Propose validates ch against the current membership, replicates it
// through the config group via the local node `from`, and blocks until the
// change has been applied locally. It returns the resulting membership.
//
// Propose retries through leader elections until proposeTimeout and is
// idempotent against its own lost responses: a retry that finds the
// change's effect already in the membership (same members joined, same
// nodes departed) reports success instead of ErrStaleEpoch.
func (l *Log) Propose(from transport.NodeID, ch Change) (Membership, error) {
	base := l.Current()
	if _, err := base.Apply(ch); err != nil {
		return Membership{}, err
	}
	departing := base.SiteNodes(ch.Site)
	size := 16
	for _, mem := range ch.Add {
		size += 8 + len(mem.Site) + len(mem.Addr)
	}
	rt := l.tr.Runtime()
	deadline := rt.Now() + l.proposeTimeout
	for {
		index, perr := l.rc.Propose(from, ch, size)
		if perr == nil {
			if m, err := l.awaitApplied(index, ch, departing, deadline); err == nil || !errors.Is(err, raft.ErrTimeout) {
				return m, err
			}
		}
		// The commit may have landed even though the response was lost.
		if cur := l.Current(); cur.Epoch > base.Epoch && changeSatisfied(cur, ch, departing) {
			return cur, nil
		}
		if rt.Now() >= deadline {
			return Membership{}, fmt.Errorf("membership: propose %s: %w", ch.Op, raft.ErrTimeout)
		}
		rt.Sleep(200 * time.Millisecond)
	}
}

// awaitApplied waits for the local apply of log index `index` (commit
// precedes apply by at most one heartbeat on the proposing peer) and
// translates the apply outcome.
func (l *Log) awaitApplied(index uint64, ch Change, departing []transport.NodeID, deadline time.Duration) (Membership, error) {
	rt := l.tr.Runtime()
	for rt.Now() < deadline {
		l.mu.Lock()
		applied, cur := l.lastIndex, l.cur.Clone()
		outcome, seen := l.outcomes[index]
		delete(l.outcomes, index)
		l.mu.Unlock()
		if applied >= index {
			// Our slot committed; apply may still have skipped it if a
			// racing change at an earlier index invalidated ours — unless
			// the racer did the very same thing.
			if seen && outcome != nil && !changeSatisfied(cur, ch, departing) {
				return Membership{}, fmt.Errorf("%w: %v", ErrStaleEpoch, outcome)
			}
			return cur, nil
		}
		rt.Sleep(10 * time.Millisecond)
	}
	return Membership{}, fmt.Errorf("membership: apply not observed: %w", raft.ErrTimeout)
}

// changeSatisfied reports whether m already reflects ch's effect: every
// arriving member is present and every departing node is gone.
func changeSatisfied(m Membership, ch Change, departing []transport.NodeID) bool {
	for _, mem := range ch.Add {
		found := false
		for _, cur := range m.Members {
			if cur == mem {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, id := range departing {
		if m.HasNode(id) {
			return false
		}
	}
	return true
}

// Fetch asks `to` for its current membership via RPC — how a node outside
// the config group (a joiner, an admin endpoint) reads the config.
func Fetch(tr transport.Transport, from, to transport.NodeID) (Membership, error) {
	resp, err := tr.Call(from, to, svcFetch, fetchReq{})
	if err != nil {
		return Membership{}, err
	}
	return resp.(Membership), nil
}

// ProposeRemote submits ch through the serving node `to` (which forwards
// into the config group) and returns the resulting membership.
func ProposeRemote(tr transport.Transport, from, to transport.NodeID, ch Change, timeout time.Duration) (Membership, error) {
	if timeout == 0 {
		timeout = 8 * tr.RPCTimeout()
	}
	resp, err := tr.CallTimeout(from, to, svcPropose, proposeChangeReq{Change: ch}, timeout)
	if err != nil {
		return Membership{}, err
	}
	m := resp.(proposeChangeResp)
	if m.Err != "" {
		return Membership{}, errors.New(m.Err)
	}
	return m.Membership, nil
}

// Poller keeps a View current by fetching from seed nodes — the follow
// path for processes outside the config group.
type Poller struct {
	mu      sync.Mutex
	stopped bool
}

// Stop ends the polling loop after its current sleep.
func (p *Poller) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
}

func (p *Poller) isStopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// Poll starts a background loop on tr's runtime that refreshes view from
// the first reachable seed every interval.
func Poll(tr transport.Transport, self transport.NodeID, seeds []transport.NodeID, view *View, interval time.Duration) *Poller {
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	p := &Poller{}
	rt := tr.Runtime()
	rt.Go(func() {
		for !p.isStopped() {
			for _, seed := range seeds {
				if seed == self {
					continue
				}
				m, err := Fetch(tr, self, seed)
				if err != nil {
					continue
				}
				view.Set(m)
				break
			}
			rt.Sleep(interval)
		}
	})
	return p
}
