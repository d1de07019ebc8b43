package core

import (
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/store"
)

// The write plane, the mirror of read.go: every in-section Put or Delete goes
// through one function, criticalWrite, and the grant record's held value has
// one fold rule — a write is folded once the store acked it, never before.

// CriticalPut writes the latest value of key for the current lockholder.
// Cost: one quorum write of the value (MUSIC) or one LWT (MSCP).
func (r *Replica) CriticalPut(key string, ref int64, value []byte) (err error) {
	sp := r.tracer().Start("music.criticalPut")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindPut, key, ref).Value(value, true)
	defer func() { hc.End(err) }()
	start := r.now()
	if err := r.criticalWrite("criticalPut", key, ref, store.Cell{Value: value}, hc); err != nil {
		return err
	}
	r.observe(OpCriticalPut, start)
	return nil
}

// CriticalDelete removes the key's value for the current lockholder (the
// delete counterpart the paper mentions in footnote 3).
func (r *Replica) CriticalDelete(key string, ref int64) (err error) {
	sp := r.tracer().Start("music.criticalDelete")
	sp.Annotatef("lockref", "%s/%d", key, ref)
	defer func() { sp.EndErr(err) }()
	hc := r.cfg.History.Begin(r.site, history.KindDelete, key, ref)
	defer func() { hc.End(err) }()
	return r.criticalWrite("criticalDelete", key, ref, store.Cell{Deleted: true}, hc)
}

// criticalWrite is the only path from an in-section write to the store:
// guard, stamp, write, then settle the grant record's held value — folded once
// the store acked the write, dropped when it did not, so the held rung never
// serves a value the store may not hold.
func (r *Replica) criticalWrite(op, key string, ref int64, cell store.Cell, hc *history.Call) error {
	elapsed, err := r.guardCritical(key, ref)
	if err != nil {
		return err
	}
	cell.TS = v2s(ref, elapsed, r.cfg.T)
	hc.TS(cell.TS)
	s := r.shardFor(key)
	// MSCP's LWT replaces the put; a tombstone is a quorum write in both modes.
	if r.cfg.Mode == ModeLWT && !cell.Deleted {
		res, casErr := s.ds.CAS(DataTable, key, nil, store.Row{colValue: cell})
		if err = casErr; err == nil && !res.Applied {
			err = errors.New("lwt not applied")
		}
	} else {
		err = s.ds.Put(DataTable, key, store.Row{colValue: cell}, store.Quorum)
	}
	if err != nil {
		r.dropHeld(key, ref)
		return fmt.Errorf("%s %s: %w", op, key, err)
	}
	r.foldHeld(key, ref, cell.Value, !cell.Deleted)
	return nil
}

// CriticalCheck verifies that ref still holds key's lock within its T
// bound — the §IV-A Exclusivity guard alone, with no data-store round trip.
// The music session layer runs it before accepting a write into, or serving
// a Get from, its client-side write buffer, so a buffered op is gated by
// exactly the same local peek as a quorum-backed critical op. Like any
// guard, an overrun section is self-preempted (ErrExpired).
func (r *Replica) CriticalCheck(key string, ref int64) error {
	_, err := r.guardCritical(key, ref)
	return err
}
