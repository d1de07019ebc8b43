package core

import (
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/lockstore"
	"repro/internal/store"
)

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
