package store

import (
	"fmt"
	"time"

	"repro/internal/paxos"
	"repro/internal/transport"
)

// maxCASAttempts bounds Paxos retries under contention.
const maxCASAttempts = 16

// CASResult reports the outcome of a light-weight transaction.
type CASResult struct {
	// Applied is true when the condition held and the update committed.
	Applied bool
	// Current is the row as read during the Paxos round — the pre-image on
	// success, the current state on condition failure.
	Current RowView
}

// CAS atomically applies update to a row if every condition holds,
// Cassandra-LWT style: prepare → serial read → propose → commit, four
// quorum round trips among the key's replicas (§X-A1). Competing proposals
// are linearized by Paxos; in-progress proposals found during prepare are
// completed first. Update cells with TS == 0 are stamped by the committing
// replicas so later LWTs always supersede earlier ones.
func (cl *Client) CAS(table, key string, conds []Cond, update Row) (res CASResult, err error) {
	cfg := cl.c.cfg
	net := cl.c.net
	rt := net.Runtime()
	targets := cl.c.ringNow().replicasFor(key)
	quorum := len(targets)/2 + 1

	sp := cl.tracer().Child("store.cas")
	if sp != nil {
		sp.Annotate("row", table+"/"+key)
	}
	start := rt.Now()
	defer func() {
		cl.observeLatency("cas", Quorum, rt.Now()-start)
		if err == nil {
			sp.Annotatef("applied", "%t", res.Applied)
		}
		sp.EndErr(err)
	}()

	base := sortRow(update)
	net.Work(cl.node, costCoordWrite+perKBCost(rowSize(base)))

	var observed uint64 // highest refusing ballot seen, to leapfrog it
	for attempt := 0; attempt < maxCASAttempts; attempt++ {
		if attempt > 0 {
			// Randomized backoff keeps competing proposers from livelock.
			rt.Sleep(time.Duration(1+rt.Rand().Intn(20*(attempt+1))) * time.Millisecond)
		}
		b := cl.c.nextBallot(key, cl.node, observed)

		// Round 1: prepare.
		prep := cl.tracer().Child("paxos.prepare")
		prep.Annotatef("ballot", "%d.%d (attempt %d)", b.Counter, b.Node, attempt)
		prepResults := net.Multicast(cl.node, targets, svcPrepare,
			prepareReq{Table: table, Key: key, B: b}, quorum, cfg.Timeout)
		prep.End()
		promises := 0
		var inProgress paxos.Ballot
		var inProgressVal sortedRow
		var committed paxos.Ballot
		refused := false
		for _, r := range prepResults {
			if r.Err != nil {
				continue
			}
			resp := r.Resp.(prepareResp)
			if resp.Committed.Compare(committed) > 0 {
				committed = resp.Committed
			}
			if !resp.OK {
				refused = true
				if resp.RefusedBy.Counter > observed {
					observed = resp.RefusedBy.Counter
				}
				continue
			}
			promises++
			if !resp.InProgress.IsZero() && resp.InProgress.Compare(inProgress) > 0 {
				inProgress = resp.InProgress
				if v, ok := resp.InProgressValue.(sortedRow); ok {
					inProgressVal = v
				}
			}
		}
		if promises < quorum {
			if refused {
				continue // lost the ballot race; retry higher
			}
			return CASResult{}, fmt.Errorf("%w: cas prepare %s/%s", ErrUnavailable, table, key)
		}

		// Complete a stranded earlier proposal before our own, unless a
		// commit already covered it.
		if !inProgress.IsZero() && inProgress.Compare(committed) > 0 {
			err := cl.proposeCommit(table, key, targets, quorum, b, inProgressVal)
			if err != nil && err != errProposeRejected {
				return CASResult{}, err
			}
			continue // restart our own CAS from a fresh ballot
		}

		// Round 2: serial read of the current row.
		read := cl.tracer().Child("paxos.read")
		current, err := cl.get(table, key, nil, Quorum, false)
		read.EndErr(err)
		if err != nil {
			return CASResult{}, err
		}

		// Condition evaluation; a failed condition needs no more rounds.
		if !condsMatch(conds, current) {
			return CASResult{Applied: false, Current: RowView{current}}, nil
		}

		// Rounds 3 and 4: propose and commit. Unstamped cells are stamped
		// here, once, from the ballot counter — every replica then stores an
		// identical cell. Stamping at commit time per replica (the old
		// scheme) let one logical CAS write carry different timestamps on
		// different replicas, and a later quorum read could merge a stale
		// replica's higher-stamped older cell over a newer commit — observed
		// as a lock-row guard regression re-minting an already-used lockRef.
		// Ballot counters give the order LWW needs: a later successful CAS
		// must out-prepare the quorum that promised this one, so its counter
		// (and stamp) is strictly higher.
		if err := cl.proposeCommit(table, key, targets, quorum, b, base.stamped(int64(b.Counter))); err != nil {
			if err == errProposeRejected {
				continue // beaten by a higher ballot; retry
			}
			return CASResult{}, err
		}
		return CASResult{Applied: true, Current: RowView{current}}, nil
	}
	return CASResult{}, fmt.Errorf("%w: cas %s/%s", ErrContention, table, key)
}

// errProposeRejected is an internal retry signal: a quorum refused the
// proposal because a higher ballot got there first.
var errProposeRejected = fmt.Errorf("store: propose rejected")

// proposeCommit runs the accept and commit rounds for (b, update).
func (cl *Client) proposeCommit(table, key string, targets []transport.NodeID, quorum int, b paxos.Ballot, update sortedRow) error {
	cfg := cl.c.cfg
	net := cl.c.net

	prop := cl.tracer().Child("paxos.propose")
	propResults := net.Multicast(cl.node, targets, svcPropose,
		proposeReq{Table: table, Key: key, B: b, Update: update}, quorum, cfg.Timeout)
	prop.End()
	replies, acks := 0, 0
	for _, r := range propResults {
		if r.Err != nil {
			continue
		}
		replies++
		if r.Resp.(proposeResp).OK {
			acks++
		}
	}
	if acks < quorum {
		if replies >= quorum {
			return errProposeRejected
		}
		return fmt.Errorf("%w: cas propose %s/%s", ErrUnavailable, table, key)
	}

	com := cl.tracer().Child("paxos.commit")
	commitResults := net.Multicast(cl.node, targets, svcCommit,
		commitReq{Table: table, Key: key, B: b, Update: update}, quorum, cfg.Timeout)
	com.End()
	if successes(commitResults) < quorum {
		return fmt.Errorf("%w: cas commit %s/%s", ErrUnavailable, table, key)
	}
	// Read-your-CAS: the quorum above may have been satisfied entirely by
	// remote acks while the commit addressed to this coordinator's own
	// replica is still in flight (on the wall-clock transports delivery
	// order is goroutine scheduling). A caller that immediately issues a
	// ONE read — served self-first by getOne — would then miss its own
	// committed write; the lock stack does exactly that in
	// GenerateAndEnqueue's local read-back, which is how the "fresh lockRef
	// not granted" transport flake arose. Applying the commit directly to
	// the co-located replica closes the window; applying a commit is
	// idempotent (handleCommit merges its cells LWW every time, and merging
	// the same cells twice changes nothing), so the in-flight RPC copy is a
	// no-op when it lands. A direct memory call, not an RPC: it charges no
	// modeled cost and adds no hop.
	if r, ok := cl.c.replicas[cl.node]; ok && contains(targets, cl.node) {
		_, _ = r.handleCommit(cl.node, commitReq{Table: table, Key: key, B: b, Update: update})
	}
	return nil
}
