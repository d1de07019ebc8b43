package core

import (
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/lockstore"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
)

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
	certified := false // a fresh grant stamps its epoch when it is certified, below
	// "Not yet" polls are dropped (no End); grants and errors are history.
	hc := r.cfg.History.Begin(r.site, history.KindAcquire, key, ref)
	defer func() {
		if err != nil || acquired {
			if acquired {
				if seed.known {
					hc.Value(seed.value, seed.present)
				}
				if !certified {
					// A re-acquire or an adoption is certified by the checks
					// it just passed: its epoch is the one current now — a
					// contended acquire may have queued across an epoch change.
					hc.EpochNow()
				}
			}
			hc.End(err)
		}
	}()

	if err := r.siteFence("acquire", key, ref); err != nil {
		return false, err
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
		sfRow, err := s.ds.Read(DataTable, key, colsSynchValue, store.Quorum)
		if err != nil {
			grantSp.EndErr(err)
			return false, fmt.Errorf("acquireLock %s: synchFlag: %w", key, err)
		}
		needSync = synchTrue(sfRow)
		if !needSync {
			seed = heldValue{known: true}
			seed.value, seed.present = sfRow.Live(colValue)
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

	// Certification. The entry fence is a WAN round old by now — the quorum
	// read, a synchronize on top — and an epoch applied meanwhile may have
	// retired this site: a grant issued on the strength of it would be a
	// non-member's. Check again at the instant the grant is issued, and give
	// the history the epoch this check saw. (Recording a lease-mode grant
	// takes further rounds; an epoch that overtakes those meets a recorded
	// section, which is epochFence's case.)
	if err := r.siteFence("acquire", key, ref); err != nil {
		return false, err
	}
	hc.EpochNow()
	certified = true

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

// siteFence refuses lock-plane work at a site outside the current epoch's
// membership — retired, or a spare that has not joined yet. Such a site must
// not mint lockRefs or issue or adopt grants: its sections would be invisible
// to the membership the rest of the cluster reconfigures around. Clients see
// ErrEpochFenced and fail over to a member site. Inert on fixed-membership
// clusters.
func (r *Replica) siteFence(op, key string, ref int64) error {
	if c := r.shardFor(key).ds.Cluster(); c.Dynamic() && !c.MemberSite(r.site) {
		return fmt.Errorf("%s %s/%d at %s (epoch %d): site not in membership: %w",
			op, key, ref, r.site, c.Epoch(), ErrEpochFenced)
	}
	return nil
}

// WatchLock parks a wait for lockRef's turn at this replica's local copy of
// the key's lock row (lockstore.Service.Watch): it fires when a change
// applied there puts ref at the head of the queue, or past it. A waiter that
// got "not yet" from AcquireLock waits on it, with a timeout, instead of
// sleeping out a poll interval, and then calls AcquireLock again — the watch
// moves when the next poll runs, never what it decides.
func (r *Replica) WatchLock(key string, ref int64) *store.Watch {
	return r.shardFor(key).ls.Watch(key, ref)
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
	defer func() { hc.End(err) }()
	s := r.shardFor(key)
	row, err := s.ds.Read(DataTable, key, colsValue, store.Quorum)
	if err != nil {
		return nil, false, fmt.Errorf("synchronize read: %w", err)
	}
	valueCell := store.Cell{TS: v2s(ref, 0, r.cfg.T), Deleted: true}
	if value, present = row.Live(colValue); present {
		valueCell = store.Cell{Value: value, TS: v2s(ref, 0, r.cfg.T)}
	}
	// The op records what was (re)written whether or not the rest succeeds:
	// a failed write may still settle.
	hc.Value(value, present)
	if err := s.ds.Put(DataTable, key, store.Row{colValue: valueCell}, store.Quorum); err != nil {
		return nil, false, fmt.Errorf("synchronize rewrite: %w", err)
	}
	// From here the store is defined — the acked rewrite out-stamps every
	// straggler of every earlier lockRef — even if the flag reset below
	// reports failure. A reset that fails at its coordinator can still land
	// and propagate, and the grant that then reads a clean flag skips the
	// synchronization rightly; the note is what tells the checker so.
	hc.Note(history.NoteRewritten)
	reset := store.Row{colSynch: store.Cell{Value: synchFalse, TS: v2s(ref, time.Microsecond, r.cfg.T)}}
	if err := s.ds.Put(DataTable, key, reset, store.Quorum); err != nil {
		return nil, false, fmt.Errorf("synchronize reset: %w", err)
	}
	return value, present, nil
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
func (r *Replica) placeStamp(key string) (int64, []transport.NodeID) {
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
func sameNodes(a, b []transport.NodeID) bool {
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
