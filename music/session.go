package music

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/history"
)

// This file is the session layer of the critical-section fast path: the
// per-held-lock state that lets a holder exploit its own exclusivity.
// While a lockRef is first in the queue, nobody else may write the key, so
// (a) the value the replica's grant record holds — piggybacked on the grant's
// synchFlag quorum read, then folded by each of the section's writes — can
// serve Gets at the cost of the local guard (core's read ladder; the session
// only vouches that it never left the granting replica), and (b) only the
// section's *last* write need reach the store, and only before the lock is
// released. Every fast-path operation still runs the same local guard as a
// quorum-backed critical op; DESIGN.md states the ECF soundness argument.

// WritePolicy selects how a critical section's writes reach the data store.
type WritePolicy int

const (
	// WriteSync issues every Put/Delete as a synchronous quorum write
	// before returning: a returned write is durable — the paper-faithful
	// default.
	WriteSync WritePolicy = iota
	// WriteBuffered coalesces writes client-side — last write wins — and
	// issues a single quorum write at flush: a write is durable once Flush
	// (or RunCritical) returns. The buffer lives in the client, so it
	// survives a cross-site failover and flushes at the new site.
	WriteBuffered
)

// String names the policy for explorer scripts and benchmark tables.
func (p WritePolicy) String() string {
	if p == WriteBuffered {
		return "buffered"
	}
	return "sync"
}

// WithWritePolicy selects the client's critical-section write policy
// (WriteSync unless set).
func WithWritePolicy(p WritePolicy) ClientOption {
	return clientOptionFunc(func(cl *Client) { cl.writePolicy = p })
}

// CriticalSection is the handle passed to RunCritical callbacks: the
// session state of one held lock. Besides delegating critical operations
// to its client it carries the write-behind buffer of the Buffered policy
// (WithWritePolicy); what the section knows of the key's value lives in the
// replica's grant record, not here.
type CriticalSection struct {
	cl  *Client
	key string
	ref LockRef

	policy WritePolicy

	// rebinds latches the client's rebind count when the lock was acquired.
	// While it still matches, every write of the section went through the
	// replica that granted the lock, so that replica's held value may serve
	// Gets. A count, not a site name: after a failover A→B→A the client is
	// "at A" again, but A's record has missed the writes made through B.
	rebinds int

	// Write-behind state (Buffered only): the section's latest write — the
	// one the next lockholder must observe, so it must be acked before
	// release.
	wbHave    bool // some write was buffered this section
	wbDirty   bool // the latest write is not yet acked by the store
	wbDeleted bool
	wbValue   []byte
}

// newSection builds the session state for a lock AwaitLock just returned.
func (cl *Client) newSection(key string, ref LockRef) *CriticalSection {
	return &CriticalSection{cl: cl, key: key, ref: ref, policy: cl.writePolicy, rebinds: cl.rebindCount()}
}

// Ref returns the section's lock reference.
func (cs *CriticalSection) Ref() LockRef { return cs.ref }

// guardRetry runs the local holder check under the client's full retry +
// failover budget.
func (cs *CriticalSection) guardRetry() error {
	return cs.cl.withRetry("criticalCheck", cs.key, cs.ref, true, func(rep *core.Replica) error {
		return rep.CriticalCheck(cs.key, int64(cs.ref))
	})
}

// Get reads the key's true value. Once the section has buffered a write it
// returns its own latest write from the client-side buffer (that write may
// not have reached any replica yet). Otherwise it goes down the bound
// replica's read ladder — as the granted session while the client has not
// re-bound since the grant, so the replica's held value serves it for the
// price of the local guard; as a plain Table I CriticalGet afterwards.
func (cs *CriticalSection) Get() ([]byte, error) {
	if cs.wbHave {
		// Read-your-writes under write-behind: the buffered value is the
		// key's true value, whatever the store's replicas say. The
		// note names the source so the ECF checker's echo rule applies
		// instead of the quorum-freshness rule.
		_, site := cs.cl.bound()
		hc := cs.cl.c.history.Begin(site, history.KindGet, cs.key, int64(cs.ref)).Note(history.NoteBuffer)
		if err := cs.guardRetry(); err != nil {
			hc.End(err)
			return nil, err
		}
		if cs.wbDeleted {
			hc.Value(nil, false).End(nil)
			return nil, nil
		}
		hc.Value(cs.wbValue, true).End(nil)
		return append([]byte(nil), cs.wbValue...), nil
	}
	return cs.cl.criticalGet(cs.key, cs.ref, cs.rebinds)
}

// Put writes the key's value under the section's write policy.
func (cs *CriticalSection) Put(v []byte) error { return cs.write(v, false) }

// Delete removes the key's value under the section's write policy.
func (cs *CriticalSection) Delete() error { return cs.write(nil, true) }

func (cs *CriticalSection) write(v []byte, deleted bool) error {
	if cs.policy == WriteBuffered {
		if err := cs.guardRetry(); err != nil {
			return err
		}
		// The buffer keeps its own copy: like core's held value, callers own
		// what they pass in and may reuse it before the flush.
		cs.wbHave, cs.wbDirty, cs.wbValue, cs.wbDeleted = true, true, append([]byte(nil), v...), deleted
		return nil
	}
	if deleted {
		return cs.cl.CriticalDelete(cs.key, cs.ref)
	}
	return cs.cl.CriticalPut(cs.key, cs.ref, v)
}

// Flush drives the section's buffered write to its quorum ack. RunCritical/
// RunCriticalMulti call it before releasing the lock — ECF demands the final
// value be acked before the dequeue lets the next holder in — and holders may
// call it mid-section as a durability point. Only the section's *latest*
// write is ever issued: any earlier one it overwrote in the buffer would be
// dominated by the final value's higher v2s timestamp anyway. A failed flush
// leaves the buffer dirty, so calling Flush again re-issues it.
func (cs *CriticalSection) Flush() (err error) {
	if !cs.wbDirty {
		return nil
	}
	sp := cs.cl.c.tracer().Child("music.cs.flush")
	sp.Annotatef("lockref", "%s/%d", cs.key, cs.ref)
	defer func() { sp.EndErr(err) }()

	// Issued with the client's full retry + failover budget; the guard stamps
	// the value with the elapsed time of the flush, not of the buffered Put.
	if cs.wbDeleted {
		err = cs.cl.CriticalDelete(cs.key, cs.ref)
	} else {
		err = cs.cl.CriticalPut(cs.key, cs.ref, cs.wbValue)
	}
	if err != nil {
		return err
	}
	cs.wbDirty = false
	return nil
}

// RunCritical runs fn inside a critical section over key: it creates a lock
// reference, awaits the lock, invokes fn, flushes any write-behind state,
// and releases the lock (Listing 1 packaged up). The lock is released even
// when fn fails; when the flush or release fail too, the errors are joined
// so a stuck lock or an unacked final write is never invisible.
func (cl *Client) RunCritical(key string, fn func(cs *CriticalSection) error) error {
	ref, err := cl.CreateLockRef(key)
	if err != nil {
		return err
	}
	if err := cl.AwaitLock(key, ref, 0); err != nil {
		// Never granted: evict our reference so it cannot become an orphan.
		_ = cl.RemoveLockRef(key, ref)
		return err
	}
	cs := cl.newSection(key, ref)
	fnErr := fn(cs)
	// The flush precedes the dequeue: the next holder's grant-time quorum
	// read must observe this section's final value (ECF).
	flushErr := cs.Flush()
	relErr := cl.ReleaseLock(key, ref)
	if flushErr != nil || relErr != nil {
		return errors.Join(fnErr, flushErr, relErr)
	}
	return fnErr
}

// RunCriticalMulti runs fn holding the locks of every key in keys,
// acquiring them in lexicographic order — the deadlock-avoidance rule the
// paper prescribes for multi-key critical sections (§III-A). Duplicate keys
// collapse to one lock: fn receives one section per distinct key.
func (cl *Client) RunCriticalMulti(keys []string, fn func(cs map[string]*CriticalSection) error) error {
	ordered := append([]string(nil), keys...)
	sort.Strings(ordered)
	// Dedupe after sorting: a repeated key would enqueue a second lockRef
	// behind our own first one and deadlock waiting for it.
	ordered = slices.Compact(ordered)

	held := make(map[string]*CriticalSection, len(ordered))
	release := func() error {
		// Flush and release in reverse acquisition order; each section's
		// write-behind state lands before its own lock is handed on.
		var errs []error
		for i := len(ordered) - 1; i >= 0; i-- {
			if cs, ok := held[ordered[i]]; ok {
				if err := cs.Flush(); err != nil {
					errs = append(errs, err)
				}
				if err := cl.ReleaseLock(ordered[i], cs.ref); err != nil {
					errs = append(errs, err)
				}
			}
		}
		return errors.Join(errs...)
	}
	for _, key := range ordered {
		ref, err := cl.CreateLockRef(key)
		if err != nil {
			return errors.Join(err, release())
		}
		if err := cl.AwaitLock(key, ref, 0); err != nil {
			_ = cl.RemoveLockRef(key, ref)
			return errors.Join(err, release())
		}
		held[key] = cl.newSection(key, ref)
	}
	fnErr := fn(held)
	if relErr := release(); relErr != nil {
		return errors.Join(fnErr, relErr)
	}
	return fnErr
}
