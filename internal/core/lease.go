package core

import (
	"hash/fnv"
	"time"

	"repro/internal/store"
)

// Site-scoped holder leases (per Keyspace, PAPERS.md): when this replica
// certifies a grant, the grant also issues the replica's *site* a
// clock-skew-bounded lease on the key, and any client routed to the site —
// not just the lockholder's session — serves Get locally for the lease
// window. The lease is no second copy of anything: it is a time window over
// the grant record's held value (read.go), and it decides only *who else*
// may take the read ladder's held rung. The safety argument (DESIGN.md
// "Read plane"):
//
//   - The lease window is effTTL = min(LeaseTTL, T − 2·LeaseSkew), measured
//     on the granting site's clock from the grant instant. A remote replica
//     preempts a granted section only once elapsed > T on its own clock, so
//     with clock skew bounded by LeaseSkew the lease has provably stopped
//     serving before any preemption's dequeue can admit a new writer.
//   - In lease mode the grant cell is written with an LWT (SetGrantLWT) and
//     the orphan reap dequeues with DequeueIfUngranted, each conditioned on
//     the whole observed lock row — ref at the head, no grant recorded for
//     it. Both serialize through Paxos on that row, so a lease-issuing grant
//     and an orphan reap of the same ref cannot both win.
//   - A replica adopting a foreign grant (failover) refuses retryably until
//     the granting site's window has provably closed (effTTL + LeaseSkew
//     past the grant instant), and a voluntary release driven at a site that
//     never held the grant locally waits the same window out before
//     dequeuing — so no new writer can be admitted while a remote lease
//     still serves.
//   - Every lease serve re-runs the full critical guard (head peek, grant
//     time, epoch fence, T bound), so a released, preempted, fenced, or
//     expired lease can never serve; release/forced-release/epoch-fence
//     paths also drop the grant record eagerly via forgetGrant.

// siteTag identifies this site in grant cells (SetGrantLWT): a granter whose
// CAS lost its ack — or a second local poll racing it — recognizes the cell
// as its own site's and re-owns the grant instead of waiting out its own
// lease window as if it were foreign. Never 0 (0 means a plain SetGrant).
func (r *Replica) siteTag() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.site))
	return h.Sum64() | 1
}

// leaseTTL returns the effective lease window: the configured TTL clamped to
// T − 2·LeaseSkew. A non-positive result disables serving entirely (the skew
// margin cannot be afforded under this T).
func (r *Replica) leaseTTL() time.Duration {
	ttl := r.cfg.LeaseTTL
	if bound := r.cfg.T - 2*r.cfg.LeaseSkew; ttl > bound {
		ttl = bound
	}
	return ttl
}

// leaseLive reports whether a lease issued at startMicros may still serve at
// nowMicros.
func (r *Replica) leaseLive(startMicros, nowMicros int64) bool {
	ttl := r.leaseTTL()
	return ttl > 0 && nowMicros-startMicros < int64(ttl/time.Microsecond)
}

// leaseWaitMicros returns how long past a grant instant a foreign replica
// must wait before it may act as (or admit) a new writer: the serve window
// plus one skew bound.
func (r *Replica) leaseWaitMicros(startMicros int64) int64 {
	ttl := r.leaseTTL()
	if ttl <= 0 {
		return startMicros
	}
	return startMicros + int64((ttl+r.cfg.LeaseSkew)/time.Microsecond)
}

// RepairRead re-reads key at quorum through the shard's coordinator — the
// repair music registers for the site with the adaptive monitor. The quorum
// read drives the store's read repair, re-converging whatever lagging
// replica served the stale weak read.
func (r *Replica) RepairRead(key string) error {
	_, err := r.shardFor(key).ds.Read(DataTable, key, colsValue, store.Quorum)
	return err
}

// staleSwap is the MutationStaleReads injection: remember the row just read
// and serve the previous remembered row instead, making every weak read
// one write behind — deterministic staleness for monitor tests and the
// readpath bench.
func (r *Replica) staleSwap(key string, row store.RowView) store.RowView {
	s := r.shardFor(key)
	s.mu.Lock()
	prev, had := s.stale[key]
	s.stale[key] = row
	s.mu.Unlock()
	if had {
		return prev
	}
	return row
}
