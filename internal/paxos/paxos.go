// Package paxos implements the single-decree Paxos state machines behind
// the store's light-weight transactions (LWTs), mirroring Cassandra's
// compare-and-set protocol: a proposer drives prepare → read → propose →
// commit rounds (four quorum round trips) against per-key acceptor state
// kept at each replica.
//
// The package is transport-agnostic: the Acceptor type is a pure state
// machine over message values, and the coordinator-side round logic lives
// in internal/store where the network is available.
package paxos

import (
	"fmt"
)

// Ballot is a Paxos ballot number: a logical counter with the proposing
// node as tiebreaker. The zero Ballot is "none" and precedes all others.
type Ballot struct {
	Counter uint64
	Node    int32
}

// IsZero reports whether b is the "none" ballot.
func (b Ballot) IsZero() bool { return b.Counter == 0 && b.Node == 0 }

// Compare returns -1, 0 or +1 as b is before, equal to, or after o.
func (b Ballot) Compare(o Ballot) int {
	switch {
	case b.Counter < o.Counter:
		return -1
	case b.Counter > o.Counter:
		return 1
	case b.Node < o.Node:
		return -1
	case b.Node > o.Node:
		return 1
	default:
		return 0
	}
}

// String formats the ballot for logs and test failures.
func (b Ballot) String() string { return fmt.Sprintf("%d.%d", b.Counter, b.Node) }

// Acceptor is the per-key Paxos state stored at a replica. It survives
// crashes (the store treats it as durable, like Cassandra's system.paxos
// table). The zero value is ready to use.
type Acceptor struct {
	// Promised is the highest ballot this acceptor has promised.
	Promised Ballot
	// Accepted/AcceptedValue is the in-progress proposal, if any.
	Accepted      Ballot
	AcceptedValue any
	// Committed is the most recently committed ballot.
	Committed Ballot
}

// PrepareResponse answers a prepare round.
type PrepareResponse struct {
	// Promised reports whether the acceptor promised the ballot. When
	// false, Promised was refused because of a higher promise (see
	// RefusedBy).
	OK        bool
	RefusedBy Ballot
	// InProgress carries a previously accepted but not yet committed
	// proposal that the proposer must complete first.
	InProgress      Ballot
	InProgressValue any
	// Committed is the acceptor's most recently committed ballot, letting
	// the proposer discard stale in-progress proposals.
	Committed Ballot
}

// HandlePrepare processes a prepare for ballot b.
func (a *Acceptor) HandlePrepare(b Ballot) PrepareResponse {
	if b.Compare(a.Promised) <= 0 {
		return PrepareResponse{OK: false, RefusedBy: a.Promised, Committed: a.Committed}
	}
	a.Promised = b
	resp := PrepareResponse{OK: true, Committed: a.Committed}
	if !a.Accepted.IsZero() && a.Accepted.Compare(a.Committed) > 0 {
		resp.InProgress = a.Accepted
		resp.InProgressValue = a.AcceptedValue
	}
	return resp
}

// HandlePropose processes an accept request for (b, v); it reports whether
// the proposal was accepted.
func (a *Acceptor) HandlePropose(b Ballot, v any) bool {
	if b.Compare(a.Promised) < 0 {
		return false
	}
	a.Promised = b
	a.Accepted = b
	a.AcceptedValue = v
	return true
}

// HandleCommit records that ballot b was committed. A commit no newer than
// the acceptor's Committed changes nothing here, but that says nothing about
// its value: a commit overtaken in flight by a later one still carries cells
// the later one may not, so the caller applies every commit's value to
// storage (internal/store merges it LWW, which is idempotent and order-free).
func (a *Acceptor) HandleCommit(b Ballot) {
	if b.Compare(a.Committed) <= 0 {
		return
	}
	a.Committed = b
	if a.Accepted.Compare(b) <= 0 {
		a.Accepted = Ballot{}
		a.AcceptedValue = nil
	}
}
