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
// Once a site's violation count within its window reaches TripCount the site
// flips to QUORUM reads. The flip is sticky: adaptive mode trades the WAN
// round-trip for monitored optimism, and once optimism is observed failing
// the site stays at quorum for the rest of its run. Every violation and
// every flip is recorded back into the history as a KindMonitor event, which
// the ECF monitor-coverage rule uses to certify that no stale weak read went
// undetected.
//
// All methods are safe from any task, and every method on a nil *Monitor is
// a no-op (reads report weak=false so callers without a monitor never serve
// weak reads by accident).
type Monitor struct {
	cfg MonitorConfig
	rec *Recorder // set by Recorder.Attach; receives KindMonitor events

	mu    sync.Mutex
	keys  map[string]*monKeyState
	sites map[string]*monSiteState
}

// MonitorConfig tunes the monitor's trip threshold.
type MonitorConfig struct {
	// TripCount is the number of in-window staleness violations that flips a
	// site from ONE to QUORUM reads. Default 3.
	TripCount int
	// Window is the sliding window of weak reads (per site) the violation
	// rate is judged over. Default 200.
	Window int
	// Writes is the per-key ring of recent writes a weak read may match
	// without being called stale. Default 8.
	Writes int
	// OnViolation, when set, is called (outside the monitor's lock) for each
	// detected staleness violation — the repair hook: adaptive mode wires it
	// to an async quorum read of the key, driving read repair.
	OnViolation func(site, key string)
	// OnFlip, when set, is called (outside the monitor's lock) when a site
	// flips to QUORUM.
	OnFlip func(site string)
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.TripCount <= 0 {
		c.TripCount = 3
	}
	if c.Window <= 0 {
		c.Window = 200
	}
	if c.Writes <= 0 {
		c.Writes = 8
	}
	return c
}

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
	writes []monWrite // ring, cfg.Writes long
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
func NewMonitor(cfg MonitorConfig) *Monitor {
	return &Monitor{
		cfg:   cfg.withDefaults(),
		keys:  make(map[string]*monKeyState),
		sites: make(map[string]*monSiteState),
	}
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
		rec := m.rec
		m.mu.Unlock()
		// Events and callbacks run outside the lock: the recorder takes its
		// own lock, and the repair hook issues store reads.
		if stale {
			rec.Event(op.Site, KindMonitor, op.Key, op.Ref, NoteStaleness)
			if m.cfg.OnViolation != nil {
				m.cfg.OnViolation(op.Site, op.Key)
			}
		}
		if tripped {
			rec.Event(op.Site, KindMonitor, op.Key, 0, NoteFlip)
			if m.cfg.OnFlip != nil {
				m.cfg.OnFlip(op.Site)
			}
		}
	}
}

func (m *Monitor) observeWrite(op Op) {
	ks := m.keys[op.Key]
	if ks == nil {
		ks = &monKeyState{writes: make([]monWrite, 0, m.cfg.Writes)}
		m.keys[op.Key] = ks
	}
	w := monWrite{ts: op.TS, value: op.Value, present: op.Present, resp: op.Resp}
	if w.ts >= ks.max.ts {
		ks.max = w
	}
	if len(ks.writes) < m.cfg.Writes {
		ks.writes = append(ks.writes, w)
	} else {
		ks.writes[ks.next] = w
		ks.next = (ks.next + 1) % m.cfg.Writes
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
	// Sliding-window rate: keep only violations within the last Window weak
	// reads, trip when they reach TripCount.
	s.violSeqs = append(s.violSeqs, s.weakReads)
	floor := s.weakReads - m.cfg.Window
	for len(s.violSeqs) > 0 && s.violSeqs[0] <= floor {
		s.violSeqs = s.violSeqs[1:]
	}
	if len(s.violSeqs) >= m.cfg.TripCount {
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
