package core

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/store"
)

// The read plane. While a lockRef heads the queue nobody else may write the
// key (§III-A), so the section's own knowledge of the value — what the
// grant-time quorum read (or synchronize) returned, overwritten by each write
// the section had acked — *is* the key's true value. That knowledge lives in
// exactly one place, the grant record's heldValue, and every in-section read
// goes down exactly one ladder, criticalRead:
//
//	guardCritical → held value → monitored ONE → quorum
//
// Who may take the held rung is the only thing that differs between readers;
// DESIGN.md "Read plane" tabulates the rungs and states the ECF rule that
// certifies each.

// heldValue is the key's value as its section knows it.
type heldValue struct {
	known   bool // value/present are meaningful
	present bool
	value   []byte
	// seq counts changes, so a quorum read refreshes only the record it
	// started from and can never overwrite a write folded while it ran.
	seq int64
}

// setHeld replaces the held value of ref's grant record, if this replica
// still has one. ifSeq ≥ 0 makes the update conditional on the record being
// unchanged since that seq was read. The record keeps its own copy of the
// bytes — callers own what they pass in and what they are handed — and never
// modifies one in place, so readers copy a held value out without the lock.
func (r *Replica) setHeld(key string, ref int64, h heldValue, ifSeq int64) {
	h.value = append([]byte(nil), h.value...)
	s := r.shardFor(key)
	s.mu.Lock()
	if g, ok := s.grants[key]; ok && g.ref == ref && (ifSeq < 0 || g.held.seq == ifSeq) {
		h.seq = g.held.seq + 1
		g.held = h
		s.grants[key] = g
	}
	s.mu.Unlock()
}

// foldHeld records an acked write of the section as the key's value.
func (r *Replica) foldHeld(key string, ref int64, value []byte, present bool) {
	r.setHeld(key, ref, heldValue{known: true, present: present, value: value}, -1)
}

// dropHeld forgets the value. Any failed critical op of the section calls it
// — the guard when it refuses, a write or read when the store fails it — so
// the held rung never serves state the store may not hold.
func (r *Replica) dropHeld(key string, ref int64) { r.setHeld(key, ref, heldValue{}, -1) }

// reader names who is asking the ladder — which fixes the admission rule of
// its held rung and nothing else.
type reader int

const (
	// tableIReader is CriticalGet, the paper's op: any client naming the
	// lockRef, possibly one that failed over here after writing elsewhere.
	// It may take the held rung only in lease mode inside the live window —
	// the one interval in which the lease protocol (SetGrantLWT, the
	// adoption wait) guarantees no other replica admitted a write.
	tableIReader reader = iota
	// sessionReader is the session the lock was granted to, vouching that it
	// has not left this replica since the grant: every write of the section
	// went through this record, so the held rung is always open to it.
	sessionReader
	// leaseReader is a plain Get landing on the holder's site in lease mode:
	// same admission as tableIReader, but it claims nothing when the rung is
	// closed — it never descends to the store.
	leaseReader
)

// Rungs, as counted by music_read_rung_total and (all but quorum) as noted on
// the recorded op.
const (
	rungCache  = history.NoteCache
	rungLease  = history.NoteLease
	rungOne    = history.NoteWeak
	rungQuorum = "quorum"
	rungMiss   = "miss" // a leaseReader found its rung closed
)

// criticalRead serves one in-section read of key for ref. It is the only
// function that picks a read rung and the only path from an in-section read
// to the store. rung reports which one served (rungMiss for a leaseReader
// whose rung was closed); hc, when recording, is noted with it.
func (r *Replica) criticalRead(key string, ref int64, who reader, hc *history.Call) (value []byte, present bool, rung string, err error) {
	if _, err := r.guardCritical(key, ref); err != nil {
		return nil, false, "", err
	}

	// The guard's peek yields, so the record is read after it: a release or
	// a write that raced the guard is already reflected here.
	s := r.shardFor(key)
	s.mu.Lock()
	g, ok := s.grants[key]
	s.mu.Unlock()
	if !ok || g.ref != ref {
		g = grant{}
	}
	if g.held.known {
		switch {
		case who == sessionReader:
			rung = rungCache
		case r.cfg.Leases && r.leaseLive(g.startMicros, r.nowMicros()):
			rung = rungLease
		}
		if rung != "" {
			hc.Note(rung)
			if !g.held.present {
				return nil, false, rung, nil
			}
			return append([]byte(nil), g.held.value...), true, rung, nil
		}
	}
	if who == leaseReader {
		return nil, false, rungMiss, nil
	}

	cons := store.Quorum
	rung = rungQuorum
	if r.cfg.Monitor != nil && r.cfg.Monitor.Weak(r.site) {
		// Adaptive mode: the monitor judges this site safe for weak reads,
		// so the data column is read at ONE (typically the local replica).
		// The op is noted so the monitor — and the offline checker's
		// adaptive rules — judge it as a weak read, not a quorum one.
		cons, rung = store.One, rungOne
		hc.Note(rung)
	}
	row, err := s.ds.Read(DataTable, key, colsValue, cons)
	if err != nil {
		r.dropHeld(key, ref)
		return nil, false, "", fmt.Errorf("criticalGet %s: %w", key, err)
	}
	if cons == store.One && r.cfg.Mutation == MutationStaleReads {
		// Injected bug under test: serve the previously observed row.
		row = r.staleSwap(key, row)
	}
	value, present = row.Live(colValue)
	if cons == store.Quorum && !g.held.known {
		// A quorum read returns the true value: a record that had lost it
		// learns it back, unless a write of the section was folded while the
		// read was in flight. (A record that knows the value already holds
		// this one — nobody else may write the key.)
		r.setHeld(key, ref, heldValue{known: true, present: present, value: value}, g.held.seq)
	}
	return value, present, rung, nil
}

// leaseGet serves a plain Get from the site lease: any client routed to the
// holder's site reads the leased section's held value, gated by the section's
// full critical guard. served=false (no live lease on the key, or the ladder
// refused) sends the caller to the ordinary eventual read.
func (r *Replica) leaseGet(key string) (value []byte, served bool) {
	if !r.cfg.Leases {
		return nil, false
	}
	s := r.shardFor(key)
	s.mu.Lock()
	g, ok := s.grants[key]
	s.mu.Unlock()
	if !ok || !g.held.known || !r.leaseLive(g.startMicros, r.nowMicros()) {
		return nil, false
	}
	sp := r.tracer().Start("music.get.lease")
	sp.Annotatef("lockref", "%s/%d", key, g.ref)
	start := r.now()
	// Begin before the guard so the recorded interval covers it: the op
	// claims critical-read freshness and is checked like one.
	hc := r.cfg.History.Begin(r.site, history.KindGet, key, g.ref)
	value, present, rung, err := r.criticalRead(key, g.ref, leaseReader, hc)
	sp.EndErr(err)
	if err != nil || rung != rungLease {
		// Refused (released, preempted, fenced, T overrun) or the window
		// closed under the guard: drop the record — the fallback read
		// records its own op.
		r.countRung(rungMiss)
		return nil, false
	}
	hc.Value(value, present).End(nil)
	r.observe(OpLeaseGet, start)
	r.countRung(rungLease)
	return value, true
}

// countRung counts one served read by the rung that served it.
func (r *Replica) countRung(rung string) {
	if o := r.ds0().Cluster().Net().Obs(); o != nil {
		o.Metrics().Counter("music_read_rung_total", obs.Labels{"site": r.site, "rung": rung}).Inc()
	}
}
