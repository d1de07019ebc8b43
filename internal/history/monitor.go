package history

import (
	"sort"
	"sync"
	"time"
)

// Monitor is the online consistency monitor behind adaptive reads (per
// Nguyen/Charapko/Kulkarni/Demirbas: serve weak reads by default, watch the
// op stream for staleness, fall back to strong reads when violations trip a
// rate threshold). It consumes the same recorded ops the offline ECF checker
// does — attached to a Recorder, it observes each op as it completes — and
// keeps an incremental model: per key, the committed-max write (by v2s
// stamp) plus a short ring of recent writes; per site, a sliding window of
// weak-read outcomes.
//
// A weak read (a KindGet that served at ONE consistency, Note "one") is a
// staleness violation when it is *attributably stale*: its value matches a
// tracked write that completed before the read began while a strictly newer
// write had also completed before the read began — the local replica served
// state it provably should have moved past. Reads matching the committed-max
// write, reads overlapping an in-flight write (either may legitimately be
// observed), and reads whose value the monitor cannot attribute at all (a
// write still in flight that the monitor has not seen complete) are not
// violations — an online monitor only ever sees completed ops, and flagging
// unattributable values would flip sites on every straggling write. The
// offline ECF checker still certifies the full history after the fact.
//
// Once 3 violations land within a site's last 200 weak reads the site flips
// to QUORUM reads. The flip is sticky: adaptive mode trades the WAN
// round-trip for monitored optimism, and once optimism is observed failing
// the site stays at quorum for the rest of its run. Each violation also
// runs its site's repair (RegisterRepair). Every violation and
// every flip is recorded back into the history as a KindMonitor event, which
// the ECF monitor-coverage rule uses to certify that no stale weak read went
// undetected.
//
// All methods are safe from any task, and every method on a nil *Monitor is
// a no-op (reads report weak=false so callers without a monitor never serve
// weak reads by accident).
type Monitor struct {
	rec *Recorder // set by Recorder.Attach; receives KindMonitor events

	mu      sync.Mutex
	keys    map[string]*monKeyState
	sites   map[string]*monSiteState
	repairs map[string]func(key string) // by site; see RegisterRepair
}

// The monitor's model. A site flips from ONE to QUORUM reads once
// monitorTrip staleness violations land within its last monitorWindow weak
// reads. monitorRing is the per-key ring of recent writes a weak read may
// match without being called stale; the offline coverage rule (ecf.go)
// holds the monitor only to staleness within it, since a value older than
// the ring is beyond an online checker's model.
const (
	monitorTrip   = 3
	monitorWindow = 200
	monitorRing   = 8
)

// monWrite is one tracked recent write.
type monWrite struct {
	ts      int64
	value   []byte
	present bool
	resp    time.Duration
}

// monKeyState is the monitor's model of one key: the committed-max write and
// a bounded ring of recent writes.
type monKeyState struct {
	max    monWrite
	writes []monWrite // ring, monitorRing long
	next   int
}

// monSiteState is one site's adaptive-read standing.
type monSiteState struct {
	weakReads  int   // total weak reads observed
	violSeqs   []int // weakReads sequence numbers of in-window violations
	violations int   // total violations (pre- and post-flip)
	postFlip   int   // violations observed after the flip
	flipped    bool  // sticky: site reads at QUORUM from now on
	flipAt     time.Duration
}

// NewMonitor builds a consistency monitor. Attach it to a recorder with
// Recorder.Attach; until then it observes nothing.
func NewMonitor() *Monitor {
	return &Monitor{
		keys:    make(map[string]*monKeyState),
		sites:   make(map[string]*monSiteState),
		repairs: make(map[string]func(key string)),
	}
}

// RegisterRepair makes repair site's answer to a staleness violation: the
// monitor calls it, outside its lock, once per violation detected at site,
// with the stale read's key. A repair must not block — it starts an
// asynchronous quorum read that re-converges the stale replica. A site has
// one repair; registering another replaces it.
func (m *Monitor) RegisterRepair(site string, repair func(key string)) {
	m.mu.Lock()
	m.repairs[site] = repair
	m.mu.Unlock()
}

// Weak reports whether site may currently serve reads at ONE consistency.
// False on a nil monitor: no monitor, no weak reads.
func (m *Monitor) Weak(site string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sites[site]
	return s == nil || !s.flipped
}

// Flipped reports whether site has tripped to QUORUM reads.
func (m *Monitor) Flipped(site string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sites[site]
	return s != nil && s.flipped
}

// Violations returns site's total detected staleness violations.
func (m *Monitor) Violations(site string) int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sites[site]
	if s == nil {
		return 0
	}
	return s.violations
}

// PostFlipViolations returns the violations site accrued after flipping to
// QUORUM — the acceptance signal that the fallback actually restored
// consistency (0 when the flip worked).
func (m *Monitor) PostFlipViolations(site string) int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sites[site]
	if s == nil {
		return 0
	}
	return s.postFlip
}

// SiteStatus is one site's row in a monitor snapshot.
type SiteStatus struct {
	Site       string `json:"site"`
	Level      string `json:"level"` // "one" or "quorum"
	WeakReads  int    `json:"weak_reads"`
	Violations int    `json:"violations"`
	PostFlip   int    `json:"post_flip_violations"`
}

// Snapshot returns every observed site's standing, sorted by site name.
func (m *Monitor) Snapshot() []SiteStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]SiteStatus, 0, len(m.sites))
	for name, s := range m.sites {
		level := "one"
		if s.flipped {
			level = "quorum"
		}
		out = append(out, SiteStatus{
			Site: name, Level: level,
			WeakReads: s.weakReads, Violations: s.violations, PostFlip: s.postFlip,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// observe feeds one completed op into the model. Called by the recorder
// after its own lock is released (lock order: monitor.mu then recorder.mu,
// because emitting a KindMonitor event re-enters the recorder).
func (m *Monitor) observe(op Op) {
	if op.Failed() {
		return
	}
	switch op.Kind {
	case KindPut, KindDelete, KindSync:
		if op.TS == 0 {
			return
		}
		m.mu.Lock()
		m.observeWrite(op)
		m.mu.Unlock()
	case KindGet:
		if op.Note != NoteWeak {
			return
		}
		m.mu.Lock()
		stale, tripped := m.observeWeakRead(op)
		rec, repair := m.rec, m.repairs[op.Site]
		m.mu.Unlock()
		// Events and the repair run outside the lock: the recorder takes its
		// own lock, and the repair issues store reads.
		if stale {
			rec.Event(op.Site, KindMonitor, op.Key, op.Ref, NoteStaleness)
			if repair != nil {
				repair(op.Key)
			}
		}
		if tripped {
			rec.Event(op.Site, KindMonitor, op.Key, 0, NoteFlip)
		}
	}
}

func (m *Monitor) observeWrite(op Op) {
	ks := m.keys[op.Key]
	if ks == nil {
		ks = &monKeyState{writes: make([]monWrite, 0, monitorRing)}
		m.keys[op.Key] = ks
	}
	w := monWrite{ts: op.TS, value: op.Value, present: op.Present, resp: op.Resp}
	if w.ts >= ks.max.ts {
		ks.max = w
	}
	if len(ks.writes) < monitorRing {
		ks.writes = append(ks.writes, w)
	} else {
		ks.writes[ks.next] = w
		ks.next = (ks.next + 1) % monitorRing
	}
}

// observeWeakRead judges one weak read and returns whether it was stale and
// whether that staleness tripped the site's flip. Caller holds m.mu.
func (m *Monitor) observeWeakRead(op Op) (stale, tripped bool) {
	s := m.sites[op.Site]
	if s == nil {
		s = &monSiteState{}
		m.sites[op.Site] = s
	}
	s.weakReads++

	ks := m.keys[op.Key]
	if ks == nil || ks.max.ts == 0 {
		return false, false // no committed write observed yet: cannot judge
	}
	if matchesWrite(op, ks.max) {
		return false, false
	}
	if ks.max.resp > op.Inv {
		return false, false // newest write concurrent with the read: old value fine
	}
	// The read missed the committed-max write. Stale only if the value is
	// attributable to an older completed write; an unmatched value belongs to
	// a write the monitor has not seen complete yet.
	attributed := false
	for _, w := range ks.writes {
		if !matchesWrite(op, w) {
			continue
		}
		if w.resp > op.Inv {
			return false, false // concurrent write: either value is legitimate
		}
		if w.ts < ks.max.ts {
			attributed = true
		}
	}
	if !attributed {
		return false, false
	}

	s.violations++
	if s.flipped {
		s.postFlip++
		return true, false
	}
	// Sliding-window rate: keep only violations within the last
	// monitorWindow weak reads, trip when they reach monitorTrip.
	s.violSeqs = append(s.violSeqs, s.weakReads)
	floor := s.weakReads - monitorWindow
	for len(s.violSeqs) > 0 && s.violSeqs[0] <= floor {
		s.violSeqs = s.violSeqs[1:]
	}
	if len(s.violSeqs) >= monitorTrip {
		s.flipped = true
		s.flipAt = op.Resp
		s.violSeqs = nil
		return true, true
	}
	return true, false
}

// matchesWrite reports whether a read observed exactly the state write w
// committed (same presence; same bytes when present).
func matchesWrite(read Op, w monWrite) bool {
	if read.Present != w.present {
		return false
	}
	return !read.Present || string(read.Value) == string(w.value)
}
