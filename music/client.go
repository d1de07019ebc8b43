package music

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/store"
)

// Client issues MUSIC operations through one site's replica (Table I).
//
// Operations that fail with transient errors (IsRetryable) are re-driven
// under the client's RetryPolicy; when failover sites are configured
// (WithFailoverSites, or Cluster.FailoverClient) and a site's attempt
// budget runs out, the client re-binds to the next candidate site's replica
// and — for lock-guarded operations — re-drives the acquisition of the same
// lockRef there before retrying, the §III-A "retry, possibly at another
// MUSIC replica" path. Every retry and failover decision is counted
// (music_retry_total, music_failover_total) and traced when the cluster
// runs WithObservability.
type Client struct {
	c        *Cluster
	home     string
	retry    RetryPolicy
	failover []string // candidate sites tried in order; nil = no failover
	dynamic  bool     // resolve candidates from the live membership instead

	// Critical-section fast path (see session.go): the write-behind policy,
	// WriteSync (paper-faithful) by default.
	writePolicy WritePolicy

	mu      sync.Mutex
	site    string // currently bound site (== home until a failover re-binds)
	rep     *core.Replica
	rebinds int // how many times rebind ran (the sessions' held-read latch)
}

// ClientOption configures a Client at construction.
type ClientOption interface {
	applyClient(*Client)
}

type clientOptionFunc func(*Client)

func (f clientOptionFunc) applyClient(cl *Client) { f(cl) }

// WithRetry sets the client's retry policy (DefaultRetryPolicy otherwise;
// NoRetry restores fail-on-first-error).
func WithRetry(p RetryPolicy) ClientOption {
	return clientOptionFunc(func(cl *Client) { cl.retry = p })
}

// WithFailoverSites names the sites, in preference order, that the client
// may re-bind to when its current site's attempt budget is exhausted on a
// retryable error. Unknown site names panic, like Cluster.Client.
func WithFailoverSites(sites ...string) ClientOption {
	return clientOptionFunc(func(cl *Client) {
		cl.failover = append([]string(nil), sites...)
	})
}

// bound returns the currently bound replica and site.
func (cl *Client) bound() (*core.Replica, string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.rep, cl.site
}

// rebind switches the client to another site's replica and returns it.
func (cl *Client) rebind(site string) *core.Replica {
	rep := cl.c.replicas[site]
	cl.mu.Lock()
	cl.site, cl.rep = site, rep
	cl.rebinds++
	cl.mu.Unlock()
	return rep
}

// rebindCount returns how many times the client has re-bound so far.
func (cl *Client) rebindCount() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.rebinds
}

// nextSite picks the first failover candidate not yet tried this operation.
// Dynamic clients resolve candidates from the live membership at decision
// time — a retired site drops out of rotation, a joined site becomes
// eligible — instead of the list frozen at construction.
func (cl *Client) nextSite(tried map[string]bool) (string, bool) {
	if cl.dynamic {
		for _, s := range cl.c.memView.Current().Sites() {
			if !tried[s] {
				if _, ok := cl.c.replicas[s]; ok {
					return s, true
				}
			}
		}
		return "", false
	}
	for _, s := range cl.failover {
		if !tried[s] {
			return s, true
		}
	}
	return "", false
}

// ensureMemberSite re-binds a dynamic client whose bound site has left the
// membership (retired or replaced — or a spare site not yet joined). Every
// section at such a site is epoch-fenced outright, so burning the retry
// budget there before failing over is pure wasted time.
func (cl *Client) ensureMemberSite(opName, key string, ref LockRef) {
	if !cl.dynamic {
		return
	}
	m := cl.c.memView.Current()
	_, site := cl.bound()
	if m.HasSite(site) {
		return
	}
	for _, s := range m.Sites() {
		if _, ok := cl.c.replicas[s]; ok {
			cl.noteFailover(opName, key, ref, site, s, ErrEpochFenced)
			cl.rebind(s)
			return
		}
	}
}

// counter bumps a client-layer metric (no-op without observability).
func (cl *Client) counter(name string, labels obs.Labels) {
	if o := cl.c.obs; o != nil {
		o.Metrics().Counter(name, labels).Inc()
	}
}

// noteRetry records one backoff-and-retry decision.
func (cl *Client) noteRetry(op, site string, err error) {
	cl.counter("music_retry_total", obs.Labels{"op": op, "site": site})
	sp := cl.c.tracer().Child("music.retry")
	sp.Annotate("op", op)
	sp.Annotate("site", site)
	sp.Annotate("cause", err.Error())
	sp.End()
}

// noteFailover records one cross-site failover decision.
func (cl *Client) noteFailover(op, key string, ref LockRef, from, to string, err error) {
	cl.counter("music_failover_total", obs.Labels{"from": from, "to": to})
	cl.c.history.Event(from, history.KindFailover, key, int64(ref), op+" "+from+"->"+to)
	sp := cl.c.tracer().Child("music.failover")
	sp.Annotate("op", op)
	sp.Annotate("from", from)
	sp.Annotate("to", to)
	sp.Annotate("cause", err.Error())
	sp.End()
}

// sleepBackoff sleeps the current backoff with ±50% jitter and doubles it
// up to the policy cap. Jitter comes from the runtime RNG, so virtual-time
// schedules remain deterministic per seed.
func (cl *Client) sleepBackoff(backoff *time.Duration, pol RetryPolicy) {
	d := *backoff
	half := d / 2
	if half > 0 {
		d = half + time.Duration(cl.c.rt.Rand().Int63n(int64(d)-int64(half)+1))
	}
	cl.c.rt.Sleep(d)
	if *backoff < pol.MaxBackoff {
		*backoff *= 2
		if *backoff > pol.MaxBackoff {
			*backoff = pol.MaxBackoff
		}
	}
}

// withRetry drives op to completion under the client's retry policy:
// bounded, jittered retries against the bound replica on retryable errors,
// then — when failover sites remain — a re-bind to the next site, a
// re-driven acquisition of ref there (for lock-guarded ops), and a fresh
// attempt budget. Terminal errors and exhausted budgets return the last
// error observed.
func (cl *Client) withRetry(opName, key string, ref LockRef, reacquire bool, op func(rep *core.Replica) error) error {
	pol := cl.retry.withDefaults()
	var tried map[string]bool
	var lastErr error
	for {
		cl.ensureMemberSite(opName, key, ref)
		rep, site := cl.bound()
		backoff := pol.BaseBackoff
		for attempt := 1; ; attempt++ {
			err := op(rep)
			if err == nil {
				return nil
			}
			if !IsRetryable(err) {
				return err
			}
			lastErr = err
			if attempt >= pol.Attempts {
				break
			}
			cl.noteRetry(opName, site, err)
			cl.sleepBackoff(&backoff, pol)
		}
		if tried == nil {
			tried = make(map[string]bool, len(cl.failover)+1)
		}
		tried[site] = true
		next, ok := cl.nextSite(tried)
		if !ok {
			return lastErr
		}
		cl.noteFailover(opName, key, ref, site, next, lastErr)
		rep = cl.rebind(next)
		if reacquire {
			// Re-drive the interrupted acquisition at the new site with the
			// same lockRef: the new replica re-grants (synchronizing if a
			// preemption left the flag set) or times out, after which the
			// critical op itself is retried there.
			if err := cl.await(true, key, ref, failoverAwait); err != nil {
				if !IsRetryable(err) && !ErrAwaitTimeout(err) {
					return err
				}
				lastErr = err
			}
		}
	}
}

// CreateLockRef enqueues a new per-key unique increasing lock reference,
// good for one critical section. A failover mid-enqueue can leave an orphan
// reference behind at the first site; orphans are reaped by the replicas'
// OrphanTimeout sweep (§IV-B a), so this only delays contenders, never
// blocks them.
func (cl *Client) CreateLockRef(key string) (LockRef, error) {
	var ref LockRef
	err := cl.withRetry("createLockRef", key, 0, false, func(rep *core.Replica) error {
		r, err := rep.CreateLockRef(key)
		if err == nil {
			ref = LockRef(r)
		}
		return err
	})
	return ref, err
}

// AcquireLock reports whether ref now holds key's lock; false with nil
// error means "not yet" — poll again, with backoff. Single attempt, no
// retries: polling is the caller's loop (use AwaitLock for the packaged
// version).
func (cl *Client) AcquireLock(key string, ref LockRef) (bool, error) {
	rep, _ := cl.bound()
	return rep.AcquireLock(key, int64(ref))
}

// AwaitLock polls AcquireLock with exponential backoff until the lock is
// granted, the timeout expires, or the lockRef dies. A zero timeout waits
// indefinitely. Retryable errors (a transient ErrUnavailable during the
// synchFlag quorum read, say) count as "not yet": the poll continues until
// the deadline, failing over to another site's replica — same lockRef —
// after the per-site attempt budget is spent on consecutive errors.
func (cl *Client) AwaitLock(key string, ref LockRef, timeout time.Duration) error {
	return cl.await(false, key, ref, timeout)
}

// await is the one poll-and-back-off loop. pinned is the failover re-drive:
// the poll stays at the replica withRetry just bound and never re-binds —
// transient errors just keep it going.
//
// Between polls it waits for whichever comes first: the key's lock row
// changing at the polled replica in ref's favour (core.Replica.WatchLock —
// the previous holder's dequeue being applied next door), or the backoff.
// The wake is only ever a reason to poll now instead of later; what a poll
// decides is AcquireLock's business as before, and everything a change cannot
// announce — a commit that never reaches this site, a key this node holds no
// replica of, a dead holder to reap, a dead ref to settle — still rides the
// timer.
func (cl *Client) await(pinned bool, key string, ref LockRef, timeout time.Duration) error {
	rt := cl.c.rt
	pol := cl.retry.withDefaults()
	deadline := rt.Now() + timeout
	backoff := time.Millisecond
	consecutive := 0
	var tried map[string]bool
	// One watch per await, and none until a poll has said "not yet": an
	// uncontended acquire parks nothing.
	var watch *store.Watch
	var watchAt *core.Replica
	woken := false
	defer func() { watch.Cancel() }()
	for {
		if !pinned {
			cl.ensureMemberSite("acquireLock", key, ref)
		}
		rep, site := cl.bound()
		if watch != nil && (woken || watchAt != rep) {
			// Spent by a wake, or parked at a replica a re-bind has left.
			// Arm the next one before the peek, not after it: a change the
			// peek is too early for then finds a watch to fire.
			watch.Cancel()
			watch, watchAt = rep.WatchLock(key, int64(ref)), rep
		}
		ok, err := rep.AcquireLock(key, int64(ref))
		switch {
		case err != nil && !IsRetryable(err):
			return err
		case err != nil && !pinned:
			// Transient failure: treat as "not yet" (§III-A), and fail over
			// once this site has burned its attempt budget back-to-back.
			consecutive++
			cl.noteRetry("acquireLock", site, err)
			if consecutive >= pol.Attempts {
				if tried == nil {
					tried = make(map[string]bool, len(cl.failover)+1)
				}
				tried[site] = true
				if next, found := cl.nextSite(tried); found {
					cl.noteFailover("acquireLock", key, ref, site, next, err)
					cl.rebind(next)
					consecutive = 0
				}
			}
		case ok:
			return nil
		default:
			consecutive = 0
		}
		wait := backoff
		if timeout > 0 {
			left := deadline - rt.Now()
			if left <= 0 {
				return fmt.Errorf("music: lock %s/%d: %w", key, ref, errAwaitTimeout)
			}
			if left < wait {
				wait = left
			}
		}
		if watch == nil {
			// The first "not yet". A change landing between that peek and
			// here goes unannounced, but this wait is the 1 ms one.
			watch, watchAt = rep.WatchLock(key, int64(ref)), rep
		}
		woken = watch.Wait(wait)
		cl.noteWake(site, woken)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

// noteWake counts what ended one wait of await: the lock row's commit, or
// the poll timer. The ratio says whether a site's handoffs are event-driven
// or have fallen back to polling.
func (cl *Client) noteWake(site string, woken bool) {
	if cl.c.obs == nil {
		return // before the label map is built: every contended wait passes here
	}
	cause := "timer"
	if woken {
		cause = "commit"
	}
	cl.counter("music_await_wake_total", obs.Labels{"site": site, "cause": cause})
}

// ErrAwaitTimeout is returned by AwaitLock when the timeout expires first.
var errAwaitTimeout = errors.New("await timeout")

// ErrAwaitTimeout reports whether err is an AwaitLock timeout.
func ErrAwaitTimeout(err error) bool { return errors.Is(err, errAwaitTimeout) }

// CriticalPut writes the latest value of key for the current lockholder.
func (cl *Client) CriticalPut(key string, ref LockRef, value []byte) error {
	return cl.withRetry("criticalPut", key, ref, true, func(rep *core.Replica) error {
		return rep.CriticalPut(key, int64(ref), value)
	})
}

// CriticalGet reads the true value of key for the current lockholder.
func (cl *Client) CriticalGet(key string, ref LockRef) ([]byte, error) {
	return cl.criticalGet(key, ref, -1)
}

// criticalGet is CriticalGet for a reader that may be the section's own
// session: latch is the rebind count the session was built at (-1 for a
// plain Table I caller, which no count equals). While the client is still
// bound where it was then, the replica serves the read as the granted
// session's (core.Replica.SessionGet); after any re-bind, as anybody's.
func (cl *Client) criticalGet(key string, ref LockRef, latch int) ([]byte, error) {
	var value []byte
	err := cl.withRetry("criticalGet", key, ref, true, func(rep *core.Replica) error {
		get := rep.CriticalGet
		if cl.rebindCount() == latch {
			get = rep.SessionGet
		}
		v, err := get(key, int64(ref))
		if err == nil {
			value = v
		}
		return err
	})
	return value, err
}

// CriticalDelete removes key's value for the current lockholder.
func (cl *Client) CriticalDelete(key string, ref LockRef) error {
	return cl.withRetry("criticalDelete", key, ref, true, func(rep *core.Replica) error {
		return rep.CriticalDelete(key, int64(ref))
	})
}

// ReleaseLock removes ref from the queue and releases the lock.
func (cl *Client) ReleaseLock(key string, ref LockRef) error {
	return cl.withRetry("releaseLock", key, ref, false, func(rep *core.Replica) error {
		return rep.ReleaseLock(key, int64(ref))
	})
}

// ForcedRelease preempts a (presumed failed) lockholder, marking the key
// for synchronization before the next grant (§IV-B; used by ownership-
// stealing services like the Portal, §VII-b).
func (cl *Client) ForcedRelease(key string, ref LockRef) error {
	return cl.withRetry("forcedRelease", key, ref, false, func(rep *core.Replica) error {
		return rep.ForcedRelease(key, int64(ref))
	})
}

// RemoveLockRef evicts a lockRef that failed to win the lock (the homing
// workers' removeLockReference, §VII-a).
func (cl *Client) RemoveLockRef(key string, ref LockRef) error {
	return cl.ReleaseLock(key, ref)
}

// Put writes key without locks at eventual consistency (no ECF guarantees).
func (cl *Client) Put(key string, value []byte) error {
	return cl.withRetry("put", key, 0, false, func(rep *core.Replica) error {
		return rep.Put(key, value)
	})
}

// Get reads key without locks; possibly stale.
func (cl *Client) Get(key string) ([]byte, error) {
	var value []byte
	err := cl.withRetry("get", key, 0, false, func(rep *core.Replica) error {
		v, err := rep.Get(key)
		if err == nil {
			value = v
		}
		return err
	})
	return value, err
}

// GetAllKeys lists keys with a live value, eventually consistent.
func (cl *Client) GetAllKeys() ([]string, error) {
	var keys []string
	err := cl.withRetry("getAllKeys", "", 0, false, func(rep *core.Replica) error {
		k, err := rep.GetAllKeys()
		if err == nil {
			keys = k
		}
		return err
	})
	return keys, err
}

// Remove permanently retires a key.
func (cl *Client) Remove(key string) error {
	return cl.withRetry("remove", key, 0, false, func(rep *core.Replica) error {
		return rep.Remove(key)
	})
}

// Site returns the site this client currently operates from (the home site
// until a failover re-binds it).
func (cl *Client) Site() string {
	_, site := cl.bound()
	return site
}

// HomeSite returns the site this client was constructed at.
func (cl *Client) HomeSite() string { return cl.home }

// Cluster returns the cluster this client is bound to (for observability
// and fault-injection plumbing).
func (cl *Client) Cluster() *Cluster { return cl.c }
