package store

import (
	"fmt"

	"repro/internal/transport"
)

// State transfer: the pull-based catch-up path a node uses when it starts
// owning keys it has never seen — a site joining the cluster, a retire
// that widens the survivors' ranges, or a process restarting with an
// empty engine. The requester asks each peer for the rows whose *current*
// placement includes the requester and merges them through the same
// cell-wise LWW rules as a replicated write, so a transfer is just a bulk
// hinted handoff: idempotent, commutative and safe to repeat. Read repair
// and handoff then converge any rows written while the transfer ran.
//
// Paxos acceptor state is deliberately not transferred: a fresh acceptor
// can only make a CAS quorum more conservative (it promises from zero),
// and the epoch fence in internal/core keeps critical sections from
// spanning the placement change itself.
const svcTransfer = "store.transfer"

type transferReq struct {
	// Requester is the node asking; the responder filters its rows by the
	// requester's place in the responder's current ring.
	Requester transport.NodeID
}

type transferRow struct {
	Table, Key string
	Cells      Row
}

type transferResp struct {
	Epoch int64
	Rows  []transferRow
}

// registerTransfer installs the transfer responder for a local node.
func (c *Cluster) registerTransfer(id transport.NodeID, r *replica) {
	c.net.HandleWithCost(id, svcTransfer, func(from transport.NodeID, req any) (any, error) {
		m := req.(transferReq)
		resp := transferResp{Epoch: c.Epoch()}
		ring := c.ringNow()
		var buf [8]transport.NodeID
		for i := range r.stripes {
			s := &r.stripes[i]
			s.mu.Lock()
			for table, rows := range s.tables {
				for key, rs := range rows {
					replicas := buf[:0]
					ring.replicasInto(key, &replicas)
					if !contains(replicas, m.Requester) {
						continue
					}
					resp.Rows = append(resp.Rows, transferRow{Table: table, Key: key, Cells: rs.cells.clone()})
				}
			}
			s.mu.Unlock()
		}
		return resp, nil
	}, costReplicaRead, costPerKB)
}

// mergeRow folds cells into the local engine (the receive half of a
// transfer), returning true if anything changed.
func (r *replica) mergeRow(table, key string, cells Row) bool {
	s := r.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.row(table, key, true).merge(cells)
}

// PullFrom asks peer for every row the local node should now hold and
// merges the responses locally. It returns the number of rows that
// changed local state.
func (c *Cluster) PullFrom(node, peer transport.NodeID) (int, error) {
	r, ok := c.replicas[node]
	if !ok {
		return 0, fmt.Errorf("store: node %d is not local", node)
	}
	resp, err := c.net.CallTimeout(node, peer, svcTransfer, transferReq{Requester: node}, 4*c.cfg.Timeout)
	if err != nil {
		return 0, err
	}
	m := resp.(transferResp)
	changed := 0
	for _, row := range m.Rows {
		if r.mergeRow(row.Table, row.Key, row.Cells) {
			changed++
		}
	}
	return changed, nil
}

// SyncLocal pulls state into every local node from the given peers (the
// current members by default). It is the catch-up step run after a
// membership change and at process startup after a crash-restart; errors
// from individual peers are tolerated as long as at least one peer per
// local node answered (quorum intersection plus read repair covers the
// rest). It returns the total number of rows changed.
func (c *Cluster) SyncLocal(peers []transport.NodeID) (int, error) {
	if len(peers) == 0 {
		peers = c.MemberNodes()
	}
	total := 0
	for node := range c.replicas {
		answered := 0
		var lastErr error
		for _, peer := range peers {
			if peer == node {
				continue
			}
			n, err := c.PullFrom(node, peer)
			if err != nil {
				lastErr = err
				continue
			}
			answered++
			total += n
		}
		if answered == 0 && lastErr != nil {
			return total, fmt.Errorf("store: transfer into node %d: %w", node, lastErr)
		}
	}
	return total, nil
}
