package store

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Watch is one parked wait for a row to change at the replica co-located
// with the client that armed it. Replicas already apply every change to the
// rows they hold — replicated writes, Paxos commits, read repair, hinted
// handoff, state transfer — so a task waiting for a row to reach some state
// can sleep until the change that brings it there is applied next to it,
// instead of re-reading the row on a timer. Nothing goes on the wire: the
// watch is memory on the replica, found and resolved under the row's stripe
// lock by the handler that applied the change.
//
// A watch is one-shot. It fires at most once, on the first applied change
// that leaves the row satisfying its match, and takes itself out of the row's
// list when it does; a watch that will not be waited on again must be
// cancelled. It is a hint, never a fact: the waiter still reads the row to
// learn what changed, and a wait always carries a timeout, because a change
// may reach this replica late or never (a lost commit, a partition).
type Watch struct {
	rt sim.Runtime
	// fired is nil on a node holding no replica of the row: no change will
	// ever be applied here, and Wait is the plain sleep it replaces.
	fired  *sim.Promise[struct{}]
	stripe *engineStripe
	row    *rowState
	match  func(RowView) bool
	parked *obs.Gauge
}

// Watch arms a watch on a row at the client's own node. match is called with
// a view of the engine's row, under the stripe lock, after each change
// applied to the row (a re-applied write that changes no cell is not one): it
// must be cheap, must not block and must not retain the view or a value read
// through it. parked, when non-nil, is raised while the watch sits in the
// row's list.
//
// A change applied before Watch returns is not seen, so arm first and read
// the row second: whatever the read misses then fires the watch.
func (cl *Client) Watch(table, key string, match func(RowView) bool, parked *obs.Gauge) *Watch {
	w := &Watch{rt: cl.c.net.Runtime()}
	r, local := cl.c.replicas[cl.node]
	if !local || !contains(cl.c.ringNow().replicasFor(key), cl.node) {
		return w
	}
	w.fired = sim.NewPromise[struct{}](w.rt)
	w.stripe, w.match, w.parked = r.stripe(key), match, parked
	w.stripe.mu.Lock()
	w.row = w.stripe.row(table, key, true)
	w.row.watchers = append(w.row.watchers, w)
	w.stripe.mu.Unlock()
	parked.Add(1)
	return w
}

// Wait blocks until the watch fires or d elapses, and reports which: true
// for a change, false for the timer. A fired watch stays fired.
func (w *Watch) Wait(d time.Duration) bool {
	if w.fired == nil {
		w.rt.Sleep(d)
		return false
	}
	_, err := w.fired.AwaitTimeout(d)
	return err == nil
}

// Cancel takes an unfired watch out of its row's list. Safe on a nil, fired
// or already cancelled watch.
func (w *Watch) Cancel() {
	if w == nil || w.fired == nil {
		return
	}
	w.stripe.mu.Lock()
	defer w.stripe.mu.Unlock()
	for i, x := range w.row.watchers {
		if x == w {
			w.row.setWatchers(append(w.row.watchers[:i], w.row.watchers[i+1:]...))
			w.parked.Add(-1)
			return
		}
	}
}

// merge folds cells into the row, LWW cell by cell, and wakes the watches the
// change satisfies. It returns whether the row changed. The caller holds the
// stripe lock.
func (rs *rowState) merge(cells sortedRow) bool {
	var changed bool
	rs.cells, changed = mergeCells(rs.cells, cells)
	if !changed || len(rs.watchers) == 0 {
		return changed
	}
	kept := rs.watchers[:0]
	for _, w := range rs.watchers {
		if w.match(RowView{rs.cells}) {
			w.fired.Resolve(struct{}{})
			w.parked.Add(-1)
		} else {
			kept = append(kept, w)
		}
	}
	rs.setWatchers(kept)
	return true
}

// setWatchers installs a shortened list built in the old one's array: the
// dropped tail is cleared so it pins no watch, and an empty list gives the
// array back.
func (rs *rowState) setWatchers(kept []*Watch) {
	clear(rs.watchers[len(kept):])
	if len(kept) == 0 {
		kept = nil
	}
	rs.watchers = kept
}
