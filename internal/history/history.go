// Package history records operation histories of MUSIC clusters and checks
// them against the paper's correctness contract: entry consistency under
// failures (ECF, §III). Every lock-protocol and data operation — acquires,
// releases, forced releases, critical puts/gets, synchronize rewrites,
// failovers — is logged with invocation/response virtual timestamps, its
// lockRef identity, and (for writes) the v2s stamp it carried, producing a
// replayable history that the checkers in ecf.go and linearize.go validate
// mechanically instead of by hand-picked assertions.
//
// Like internal/obs, the package is nil-safe by design: a nil *Recorder
// turns every method into a no-op, so the instrumented protocol paths carry
// no conditionals and no allocations when history recording is disabled
// (the default). history_test.go proves the zero-allocation claim.
package history

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/placement"
	"repro/internal/sim"
)

// Kind identifies the operation an Op records.
type Kind uint8

// Operation kinds. Store-level kinds record the raw quorum traffic beneath
// the MUSIC ops; the checkers consume the core- and session-level kinds.
const (
	// KindAcquire is a successful lock grant observed by a replica (the
	// moment a client becomes lockholder). Synchronized marks grants that
	// ran the §IV-B data-store synchronization.
	KindAcquire Kind = iota + 1
	// KindRelease is a voluntary dequeue by the lockholder.
	KindRelease
	// KindForcedRelease is a preemption: the δ-stamped synchFlag mark plus
	// the dequeue (§IV-B). Only effective preemptions are recorded; the
	// "previously released" no-op path is not an event.
	KindForcedRelease
	// KindPut is a critical put (value write under the lock), stamped TS.
	KindPut
	// KindDelete is a critical delete (tombstone under the lock).
	KindDelete
	// KindGet is a critical get: the value a lockholder observed. Session
	// cache- and buffer-served reads record the same kind — they claim the
	// same ECF guarantee as a quorum read and are checked identically.
	KindGet
	// KindSync is the grant-time synchronize rewrite: the quorum-read value
	// re-stamped with the new lockholder's v2s(ref, 0).
	KindSync
	// KindEventualPut / KindEventualGet are the no-ECF plain operations
	// (§VI); recorded for completeness, ignored by the checkers.
	KindEventualPut
	KindEventualGet
	// KindFailover is a client re-binding to another site mid-operation
	// (§III-A); Site is the old site, Note the new one.
	KindFailover
	// KindStorePut / KindStoreGet are raw data-store quorum operations
	// beneath the MUSIC table (diagnostics; not checked).
	KindStorePut
	KindStoreGet
	// KindEpoch is a membership epoch change becoming visible at a site:
	// Epoch is the new epoch and Note carries the member set it placed
	// ("rf=3 members=site:id,..."), from which the epoch checker re-derives
	// placement. Appended after the store kinds so every earlier kind keeps
	// its historical numeric value (pinned repro artifacts render ids).
	KindEpoch
	// KindMonitor is a consistency-monitor point event: a detected staleness
	// violation ("staleness") or a site flipping its adaptive read level
	// ("flip one->quorum"). Appended after KindEpoch for the same numeric-
	// stability reason.
	KindMonitor
)

// Notes attached to ops by the read plane. The checkers and the online
// monitor classify gets by these, so core, the session layer and the checker
// must agree on the exact strings.
const (
	// NoteCache marks a session get served from the grant record's held
	// value, NoteBuffer one served from the session's client-side write
	// buffer — both checked by the echo rule instead of freshness.
	NoteCache  = "cache"
	NoteBuffer = "buffer"
	// NoteWeak marks a critical get served at ONE consistency under adaptive
	// reads — checked by the adaptive rules, judged online by the Monitor.
	NoteWeak = "one"
	// NoteLease marks a critical get served locally from the site's holder
	// lease — checked by the lease rules and the full freshness rule.
	NoteLease = "lease"
	// NoteRewritten marks a KindSync whose value rewrite was acknowledged at
	// quorum, whatever became of the synchFlag reset after it: from that ack
	// on the data store is defined, which is what the sync-skip rule needs to
	// know of a synchronize that went on to fail.
	NoteRewritten = "rewritten"
	// NoteStaleness is the KindMonitor event recording a detected weak-read
	// staleness violation.
	NoteStaleness = "staleness"
	// NoteFlip is the KindMonitor event recording a site flipping its
	// adaptive read level from ONE to QUORUM.
	NoteFlip = "flip one->quorum"
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindAcquire:
		return "acquire"
	case KindRelease:
		return "release"
	case KindForcedRelease:
		return "forcedRelease"
	case KindPut:
		return "criticalPut"
	case KindDelete:
		return "criticalDelete"
	case KindGet:
		return "criticalGet"
	case KindSync:
		return "synchronize"
	case KindEventualPut:
		return "put"
	case KindEventualGet:
		return "get"
	case KindFailover:
		return "failover"
	case KindStorePut:
		return "store.put"
	case KindStoreGet:
		return "store.get"
	case KindEpoch:
		return "epoch"
	case KindMonitor:
		return "monitor"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one recorded operation: a [Inv, Resp] interval in virtual (or wall)
// time, the lockRef it ran under, and its outcome.
type Op struct {
	ID   uint64 // completion order, 1-based
	Site string // replica site the operation ran at
	Kind Kind
	Key  string
	Ref  int64 // lockRef identity; 0 for unlocked ops

	Inv  time.Duration // invocation time
	Resp time.Duration // response time

	Value   []byte // value written or observed
	Present bool   // value exists (false: absent/tombstone)
	TS      int64  // v2s stamp carried by writes; 0 when unstamped

	// Synchronized marks a KindAcquire grant that performed the §IV-B
	// data-store synchronization before admitting the holder.
	Synchronized bool

	// Epoch is the membership epoch current at this site when the op was
	// invoked; 0 on fixed-membership clusters (no epoch events recorded),
	// where the epoch checker is inert.
	Epoch int64

	Note string // free-form detail (failover target, cache source, …)
	Err  string // empty on success
}

// Failed reports whether the operation returned an error.
func (o Op) Failed() bool { return o.Err != "" }

// String renders the op as one history line.
func (o Op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-4d %12v..%-12v %-7s %-13s %s/%d", o.ID, o.Inv, o.Resp, o.Site, o.Kind, o.Key, o.Ref)
	switch o.Kind {
	case KindPut, KindDelete, KindGet, KindSync, KindEventualPut, KindEventualGet:
		if o.Present {
			fmt.Fprintf(&b, " value=%q", o.Value)
		} else {
			b.WriteString(" value=<absent>")
		}
	}
	if o.TS != 0 {
		fmt.Fprintf(&b, " ts=%d", o.TS)
	}
	if o.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", o.Epoch)
	}
	if o.Kind == KindAcquire {
		fmt.Fprintf(&b, " synchronized=%t", o.Synchronized)
	}
	if o.Note != "" {
		fmt.Fprintf(&b, " note=%s", o.Note)
	}
	if o.Err != "" {
		fmt.Fprintf(&b, " err=%q", o.Err)
	}
	return b.String()
}

// Recorder accumulates a history. All methods are safe from any task, and
// every method on a nil *Recorder is a no-op.
type Recorder struct {
	rt sim.Runtime

	// epoch is the membership epoch ops are stamped with at Begin. It stays
	// 0 (no stamp) until the first EpochEvent, so fixed-membership clusters
	// record byte-identical histories with or without this feature.
	epoch atomic.Int64

	// mon, when attached, observes every completed op online — the live
	// consistency monitor behind adaptive reads. Nil (one atomic load per
	// End) on every recorder that never called Attach.
	mon atomic.Pointer[Monitor]

	mu   sync.Mutex
	ops  []Op
	next uint64
}

// Attach connects an online consistency monitor, unless one is attached
// already, and returns the one attached: every op appended from now on
// (except the monitor's own KindMonitor events) is fed to its observe after
// the recorder's lock is released. Deployments that share a recorder so
// share its first monitor, however many of them attach one.
func (r *Recorder) Attach(m *Monitor) *Monitor {
	if r == nil || m == nil {
		return nil
	}
	m.rec = r
	if !r.mon.CompareAndSwap(nil, m) {
		return r.mon.Load()
	}
	return m
}

// New builds an enabled recorder clocked by rt.
func New(rt sim.Runtime) *Recorder { return &Recorder{rt: rt} }

// Call is one in-flight operation being recorded; obtained from Begin,
// finished with End. All methods on a nil *Call are no-ops.
type Call struct {
	r  *Recorder
	op Op
}

// Begin opens an operation record at the current time. On a nil recorder it
// returns nil (and the entire call chain costs nothing).
func (r *Recorder) Begin(site string, kind Kind, key string, ref int64) *Call {
	if r == nil {
		return nil
	}
	return &Call{r: r, op: Op{Site: site, Kind: kind, Key: key, Ref: ref, Inv: r.rt.Now(), Epoch: r.epoch.Load()}}
}

// Value records the value written or observed. The bytes are copied.
func (c *Call) Value(v []byte, present bool) *Call {
	if c == nil {
		return nil
	}
	if v != nil {
		v = append([]byte(nil), v...)
	}
	c.op.Value, c.op.Present = v, present
	return c
}

// TS records the v2s stamp a write carried.
func (c *Call) TS(ts int64) *Call {
	if c == nil {
		return nil
	}
	c.op.TS = ts
	return c
}

// EpochNow re-stamps the op with the epoch current at the time of the call
// rather than at Begin. Acquires use it on success: a contended acquire can
// wait in the queue across an epoch change and only be granted after it, and
// the epoch the grant was certified under — the one the epoch-span rule must
// judge the section by — is the one at grant time, not at enqueue time.
func (c *Call) EpochNow() *Call {
	if c == nil {
		return nil
	}
	c.op.Epoch = c.r.epoch.Load()
	return c
}

// Synchronized marks a grant that ran the data-store synchronization.
func (c *Call) Synchronized(ok bool) *Call {
	if c == nil {
		return nil
	}
	c.op.Synchronized = ok
	return c
}

// Note attaches free-form detail.
func (c *Call) Note(note string) *Call {
	if c == nil {
		return nil
	}
	c.op.Note = note
	return c
}

// End closes the record with the operation's outcome and appends it to the
// history. Ops are numbered in completion order.
func (c *Call) End(err error) {
	if c == nil {
		return
	}
	c.op.Resp = c.r.rt.Now()
	if err != nil {
		c.op.Err = err.Error()
	}
	c.r.mu.Lock()
	c.r.next++
	c.op.ID = c.r.next
	c.r.ops = append(c.r.ops, c.op)
	c.r.mu.Unlock()
	if m := c.r.mon.Load(); m != nil {
		m.observe(c.op)
	}
}

// Event records an instantaneous operation (failover decisions and other
// point events).
func (r *Recorder) Event(site string, kind Kind, key string, ref int64, note string) {
	if r == nil {
		return
	}
	now := r.rt.Now()
	op := Op{
		Site: site, Kind: kind, Key: key, Ref: ref,
		Inv: now, Resp: now, Note: note, Epoch: r.epoch.Load(),
	}
	r.mu.Lock()
	r.next++
	op.ID = r.next
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	if m := r.mon.Load(); m != nil && kind != KindMonitor {
		m.observe(op)
	}
}

// EpochEvent records a membership epoch becoming visible at site and makes
// epoch the stamp of every subsequently begun op. The member set (and the
// rf it was applied with) is encoded into the op's Note so the epoch
// checker can re-derive each epoch's placement from the history alone.
func (r *Recorder) EpochEvent(site string, epoch int64, rf int, members []placement.Node) {
	if r == nil {
		return
	}
	r.epoch.Store(epoch)
	now := r.rt.Now()
	r.mu.Lock()
	r.next++
	r.ops = append(r.ops, Op{
		ID: r.next, Site: site, Kind: KindEpoch,
		Inv: now, Resp: now, Epoch: epoch, Note: encodeEpochNote(rf, members),
	})
	r.mu.Unlock()
}

// Ops returns a copy of the recorded history in completion order.
func (r *Recorder) Ops() []Op {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

// Len returns the number of recorded ops.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Reset discards the history (between explorer schedules reusing a world).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops, r.next = nil, 0
	r.mu.Unlock()
}

// Render formats a slice of ops as an aligned multi-line history, one op
// per line, in completion order — the form violations embed in repro files.
func Render(ops []Op) string {
	var b strings.Builder
	for _, o := range ops {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}
