package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/music"
)

// awaitTimeout bounds one lock wait on the workload's clock. The longest
// legitimate wait is a hot key's whole queue on the WAN plane — five
// sections of about half a second — so a minute means the lock is lost.
const awaitTimeout = time.Minute

// sectionOps is one way of driving the five Table I operations. The section
// driver is written against it so the same loop times the session layer
// (music.Client), the core replica beneath it, and the REST front end.
type sectionOps interface {
	CreateLockRef(key string) (int64, error)
	AwaitLock(key string, ref int64) error
	CriticalPut(key string, ref int64, value []byte) error
	CriticalGet(key string, ref int64) ([]byte, error)
	ReleaseLock(key string, ref int64) error
}

// musicOps drives a music.Client — the API services use.
type musicOps struct{ cl *music.Client }

func (m musicOps) CreateLockRef(key string) (int64, error) {
	ref, err := m.cl.CreateLockRef(key)
	return int64(ref), err
}
func (m musicOps) AwaitLock(key string, ref int64) error {
	return m.cl.AwaitLock(key, music.LockRef(ref), awaitTimeout)
}
func (m musicOps) CriticalPut(key string, ref int64, v []byte) error {
	return m.cl.CriticalPut(key, music.LockRef(ref), v)
}
func (m musicOps) CriticalGet(key string, ref int64) ([]byte, error) {
	return m.cl.CriticalGet(key, music.LockRef(ref))
}
func (m musicOps) ReleaseLock(key string, ref int64) error {
	return m.cl.ReleaseLock(key, music.LockRef(ref))
}

// coreOps drives a site's core.Replica directly, skipping the session layer
// (failover binding, write policies, history echo). music.* minus core.* is
// that layer's self time. What the session layer does that a caller cannot
// do without — re-driving an operation that failed with a retryable error —
// is done here too, or a contended workload could not be driven this way.
type coreOps struct {
	rep      *core.Replica
	rt       sim.Runtime
	attempts int // per-operation budget, as music.RetryPolicy.Attempts
}

// retry runs op under music.DefaultRetryPolicy's backoff without its jitter.
func (c coreOps) retry(op func() error) error {
	backoff := music.DefaultRetryPolicy.BaseBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !music.IsRetryable(err) || attempt >= c.attempts {
			return err
		}
		c.rt.Sleep(backoff)
		backoff = min(2*backoff, music.DefaultRetryPolicy.MaxBackoff)
	}
}

func (c coreOps) CreateLockRef(key string) (ref int64, err error) {
	err = c.retry(func() (err error) { ref, err = c.rep.CreateLockRef(key); return err })
	return ref, err
}

func (c coreOps) AwaitLock(key string, ref int64) error {
	return pollUntilHeld(c.rt, key, ref, func() (bool, error) {
		ok, err := c.rep.AcquireLock(key, ref)
		if err != nil && music.IsRetryable(err) {
			return false, nil // "not yet", as music.Client.AwaitLock treats it
		}
		return ok, err
	})
}

// pollUntilHeld polls a one-shot acquire with music.Client.AwaitLock's own
// 1→64 ms backoff, so a contended wait costs the same number of polls on
// every path the driver can take.
func pollUntilHeld(rt sim.Runtime, key string, ref int64, acquire func() (bool, error)) error {
	deadline := rt.Now() + awaitTimeout
	for backoff := time.Millisecond; ; {
		held, err := acquire()
		if err != nil || held {
			return err
		}
		if rt.Now() >= deadline {
			return fmt.Errorf("await %s/%d: not granted within %v", key, ref, awaitTimeout)
		}
		rt.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}
func (c coreOps) CriticalPut(key string, ref int64, v []byte) error {
	return c.retry(func() error { return c.rep.CriticalPut(key, ref, v) })
}
func (c coreOps) CriticalGet(key string, ref int64) (v []byte, err error) {
	err = c.retry(func() (err error) { v, err = c.rep.CriticalGet(key, ref); return err })
	return v, err
}
func (c coreOps) ReleaseLock(key string, ref int64) error {
	return c.retry(func() error { return c.rep.ReleaseLock(key, ref) })
}

// shape is what one section does while it holds the lock: Ops critical
// operations, every PutEvery-th (starting with the first) a put of
// ValueSize bytes and the rest gets. {2, 2, 256} is the paper's Table I
// section: one put, one get.
type shape struct {
	Ops       int
	PutEvery  int
	ValueSize int
}

var tableISection = shape{Ops: 2, PutEvery: 2, ValueSize: 256}

// The five operations a section is made of, in the order it issues them.
const (
	opCreate = iota
	opAcquire
	opPut
	opGet
	opRelease
	numOps
)

var opNames = [numOps]string{"createLockRef", "acquireLock", "criticalPut", "criticalGet", "releaseLock"}

// sectionRec is one completed section on the workload's clock.
type sectionRec struct {
	Client   int
	Key      string
	Ref      int64
	Start    time.Duration // CreateLockRef called
	Created  time.Duration // CreateLockRef returned
	Granted  time.Duration // AwaitLock returned
	Release  time.Duration // ReleaseLock called
	End      time.Duration // ReleaseLock returned
	ViaCore  bool          // driven on core.Replica rather than music.Client
	BytesEnd int64         // layerStats byte counter at End (traced runs)
}

func (r sectionRec) latency() time.Duration { return r.End - r.Start }

// latencies lists the sections' latencies.
func latencies(recs []sectionRec) []time.Duration {
	lat := make([]time.Duration, len(recs))
	for i, r := range recs {
		lat[i] = r.latency()
	}
	return lat
}

// byCompletion returns recs in completion order and the size of a tenth of
// them: the first and the last tenth are the two ends reuse_slowdown
// compares.
func byCompletion(recs []sectionRec) (rs []sectionRec, tenth int) {
	rs = append([]sectionRec(nil), recs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].End < rs[j].End })
	return rs, len(rs) / 10
}

// tally counts operations and keeps the first few failures for the report.
type tally struct {
	Attempted int      `json:"attempted"` // operations issued
	Failed    int      `json:"failed"`    // failed, refused, or answered wrongly
	Errors    []string `json:"errors,omitempty"`
}

// maxErrors bounds the failure messages a tally keeps.
const maxErrors = 8

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Errors) < maxErrors {
		t.Errors = append(t.Errors, fmt.Sprintf(format, args...))
	}
}

// absorb folds another tally into t.
func (t *tally) absorb(o *tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Errors = append(t.Errors, o.Errors[:min(len(o.Errors), maxErrors-len(t.Errors))]...)
}

// sample is what one client gathered over one measurement window.
type sample struct {
	tally
	Recs    []sectionRec
	Ops     [numOps][]time.Duration // music-driven (or only) path
	CoreOps [numOps][]time.Duration // core-driven sections of a traced run
}

// merge folds another client's sample into s.
func (s *sample) merge(o *sample) {
	s.absorb(&o.tally)
	s.Recs = append(s.Recs, o.Recs...)
	for i := range s.Ops {
		s.Ops[i] = append(s.Ops[i], o.Ops[i]...)
		s.CoreOps[i] = append(s.CoreOps[i], o.CoreOps[i]...)
	}
}

// client is one closed-loop caller: it issues a section, waits for it, and
// only then issues the next.
type client struct {
	id     int
	now    func() time.Duration // the workload's clock
	clock  *refClock
	filler []byte      // seeded bytes every value starts from
	stats  *layerStats // nil unless traced
	seq    uint32      // sections issued, embedded in every value
}

// valueFor builds the value of the op-th operation of the client's current
// section: seeded filler with (client, section, op) stamped over its head,
// so a get that returns anything but the section's last put is caught.
func (c *client) valueFor(op int, size int) []byte {
	v := make([]byte, size) // fresh: the history recorder keeps a reference
	copy(v, c.filler)
	binary.BigEndian.PutUint32(v[0:], uint32(c.id))
	binary.BigEndian.PutUint32(v[4:], c.seq)
	binary.BigEndian.PutUint32(v[8:], uint32(op))
	return v
}

// section runs one critical section over key and books it in s. Every
// operation counts as attempted; an error, a refusal or a wrong read counts
// as failed and ends the section (the lock is still released).
func (c *client) section(ops sectionOps, viaCore bool, key string, sh shape, s *sample) {
	c.clock.tick()
	c.seq++
	durs := &s.Ops
	if viaCore {
		durs = &s.CoreOps
	}
	rec := sectionRec{Client: c.id, Key: key, ViaCore: viaCore, Start: c.now()}

	s.Attempted++
	ref, err := ops.CreateLockRef(key)
	rec.Created = c.now()
	if err != nil {
		s.fail("createLockRef %s: %v", key, err)
		return
	}
	rec.Ref = ref

	s.Attempted++
	err = ops.AwaitLock(key, ref)
	rec.Granted = c.now()
	if err != nil {
		s.fail("awaitLock %s/%d: %v", key, ref, err)
		s.Attempted++
		if err := ops.ReleaseLock(key, ref); err != nil {
			s.fail("releaseLock %s/%d after failed await: %v", key, ref, err)
		}
		return
	}

	ok := true
	var last []byte
	for i := 0; i < sh.Ops && ok; i++ {
		s.Attempted++
		t0 := c.now()
		if i%sh.PutEvery == 0 {
			last = c.valueFor(i, sh.ValueSize)
			if err := ops.CriticalPut(key, ref, last); err != nil {
				s.fail("criticalPut %s/%d: %v", key, ref, err)
				ok = false
				break
			}
			durs[opPut] = append(durs[opPut], c.now()-t0)
			continue
		}
		got, err := ops.CriticalGet(key, ref)
		switch {
		case err != nil:
			s.fail("criticalGet %s/%d: %v", key, ref, err)
			ok = false
		case !bytes.Equal(got, last):
			s.fail("criticalGet %s/%d: read %d bytes that are not the section's last put", key, ref, len(got))
			ok = false
		default:
			durs[opGet] = append(durs[opGet], c.now()-t0)
		}
	}

	s.Attempted++
	rec.Release = c.now()
	err = ops.ReleaseLock(key, ref)
	rec.End = c.now()
	if err != nil {
		s.fail("releaseLock %s/%d: %v", key, ref, err)
		return
	}
	if !ok {
		return
	}
	durs[opCreate] = append(durs[opCreate], rec.Created-rec.Start)
	durs[opAcquire] = append(durs[opAcquire], rec.Granted-rec.Created)
	durs[opRelease] = append(durs[opRelease], rec.End-rec.Release)
	if c.stats != nil {
		rec.BytesEnd = c.stats.totalBytes()
	}
	s.Recs = append(s.Recs, rec)
}

// overlappingHolders checks mutual exclusion from the outside: on every key
// the intervals [AwaitLock returned, ReleaseLock called] of its sections
// must be disjoint on the workload's clock. It returns one line per overlap.
func overlappingHolders(recs []sectionRec) []string {
	byKey := make(map[string][]sectionRec)
	for _, r := range recs {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	var out []string
	for key, rs := range byKey {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Granted < rs[j].Granted })
		for i := 1; i < len(rs); i++ {
			if rs[i].Granted < rs[i-1].Release {
				out = append(out, fmt.Sprintf("key %s: lockRef %d granted at %v while lockRef %d held until %v",
					key, rs[i].Ref, rs[i].Granted, rs[i-1].Ref, rs[i-1].Release))
			}
		}
	}
	sort.Strings(out)
	return out
}

// handoffs returns, per key in lockRef order, the time from the previous
// holder's ReleaseLock returning to the next holder's AwaitLock returning,
// counted only when the next lockRef already existed at that release — a
// waiter was queued, so the interval is the protocol's handoff and not the
// waiter's own arrival time. Sections with no queued predecessor contribute
// their uncontended grant time, CreateLockRef called → AwaitLock returned,
// to the second result.
func handoffs(recs []sectionRec) (queued, alone []time.Duration) {
	byKey := make(map[string][]sectionRec)
	for _, r := range recs {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	for _, rs := range byKey {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Ref < rs[j].Ref })
		for i, r := range rs {
			if i > 0 && r.Created <= rs[i-1].End {
				queued = append(queued, r.Granted-rs[i-1].End)
				continue
			}
			alone = append(alone, r.Granted-r.Start)
		}
	}
	return queued, alone
}
