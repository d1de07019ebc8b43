package paxos

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBallotCompare(t *testing.T) {
	tests := []struct {
		a, b Ballot
		want int
	}{
		{Ballot{}, Ballot{}, 0},
		{Ballot{}, Ballot{1, 0}, -1},
		{Ballot{1, 0}, Ballot{}, 1},
		{Ballot{1, 1}, Ballot{1, 2}, -1},
		{Ballot{2, 0}, Ballot{1, 9}, 1},
		{Ballot{5, 3}, Ballot{5, 3}, 0},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := tt.a.Less(tt.b); got != (tt.want < 0) {
			t.Errorf("Less(%v, %v) = %v", tt.a, tt.b, got)
		}
	}
}

func TestBallotCompareAntisymmetric(t *testing.T) {
	f := func(c1 uint64, n1 int32, c2 uint64, n2 int32) bool {
		a, b := Ballot{c1, n1}, Ballot{c2, n2}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBallotIsZero(t *testing.T) {
	if !(Ballot{}).IsZero() {
		t.Error("zero ballot not IsZero")
	}
	if (Ballot{1, 0}).IsZero() || (Ballot{0, 1}).IsZero() {
		t.Error("nonzero ballot reported IsZero")
	}
}

func TestAcceptorPromiseOrdering(t *testing.T) {
	var a Acceptor
	if resp := a.HandlePrepare(Ballot{5, 1}); !resp.OK {
		t.Fatal("fresh prepare refused")
	}
	// Lower and equal ballots must be refused.
	if resp := a.HandlePrepare(Ballot{4, 9}); resp.OK {
		t.Error("lower prepare accepted")
	} else if resp.RefusedBy != (Ballot{5, 1}) {
		t.Errorf("RefusedBy = %v, want 5.1", resp.RefusedBy)
	}
	if resp := a.HandlePrepare(Ballot{5, 1}); resp.OK {
		t.Error("equal prepare accepted")
	}
	// Higher ballots supersede.
	if resp := a.HandlePrepare(Ballot{6, 0}); !resp.OK {
		t.Error("higher prepare refused")
	}
}

func TestAcceptorProposeRequiresPromise(t *testing.T) {
	var a Acceptor
	a.HandlePrepare(Ballot{10, 0})
	if a.HandlePropose(Ballot{9, 0}, "v") {
		t.Error("propose below promise accepted")
	}
	if !a.HandlePropose(Ballot{10, 0}, "v") {
		t.Error("propose at promise refused")
	}
	// A propose at a higher ballot implies the promise.
	if !a.HandlePropose(Ballot{11, 0}, "w") {
		t.Error("higher propose refused")
	}
	if a.Promised != (Ballot{11, 0}) {
		t.Errorf("Promised = %v, want 11.0", a.Promised)
	}
}

func TestAcceptorInProgressSurfacedOnPrepare(t *testing.T) {
	var a Acceptor
	a.HandlePrepare(Ballot{3, 0})
	a.HandlePropose(Ballot{3, 0}, "pending")

	resp := a.HandlePrepare(Ballot{4, 0})
	if !resp.OK {
		t.Fatal("prepare refused")
	}
	if resp.InProgress != (Ballot{3, 0}) || resp.InProgressValue != "pending" {
		t.Errorf("in-progress = (%v, %v), want (3.0, pending)", resp.InProgress, resp.InProgressValue)
	}
}

func TestAcceptorCommitClearsInProgress(t *testing.T) {
	var a Acceptor
	a.HandlePrepare(Ballot{3, 0})
	a.HandlePropose(Ballot{3, 0}, "v")
	a.HandleCommit(Ballot{3, 0})
	a.HandleCommit(Ballot{3, 0}) // duplicate
	a.HandleCommit(Ballot{2, 0}) // stale: must not move Committed back
	resp := a.HandlePrepare(Ballot{4, 0})
	if !resp.InProgress.IsZero() {
		t.Errorf("in-progress survives commit: %v", resp.InProgress)
	}
	if resp.Committed != (Ballot{3, 0}) {
		t.Errorf("Committed = %v, want 3.0", resp.Committed)
	}
}

func TestAcceptorCommitDoesNotClearNewerAccepted(t *testing.T) {
	var a Acceptor
	a.HandlePrepare(Ballot{3, 0})
	a.HandlePropose(Ballot{3, 0}, "old")
	a.HandlePropose(Ballot{5, 0}, "new")
	a.HandleCommit(Ballot{3, 0})
	resp := a.HandlePrepare(Ballot{6, 0})
	if resp.InProgress != (Ballot{5, 0}) || resp.InProgressValue != "new" {
		t.Errorf("in-progress = (%v, %v), want (5.0, new)", resp.InProgress, resp.InProgressValue)
	}
}

// TestSingleDecreeSafety runs randomized interleavings of two proposers over
// three acceptors and checks the classic Paxos safety property: once a value
// is chosen (accepted by a majority at some ballot), every higher-ballot
// proposal that reaches acceptance carries the same value — provided the
// proposers follow the protocol (adopt the in-progress value from prepare
// responses).
func TestSingleDecreeSafety(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acceptors := []*Acceptor{{}, {}, {}}

		type proposal struct {
			ballot Ballot
			value  string
		}
		var accepted []proposal // every (ballot, value) majority-accepted

		// Each proposer runs one full round against a random quorum.
		runProposer := func(node int32, counter uint64, myValue string) {
			b := Ballot{Counter: counter, Node: node}
			quorum := rng.Perm(3)[:2]

			value := myValue
			var highest Ballot
			oks := 0
			for _, ai := range quorum {
				resp := acceptors[ai].HandlePrepare(b)
				if !resp.OK {
					continue
				}
				oks++
				if !resp.InProgress.IsZero() && highest.Less(resp.InProgress) {
					highest = resp.InProgress
					value = resp.InProgressValue.(string)
				}
			}
			if oks < 2 {
				return
			}
			acks := 0
			for _, ai := range quorum {
				if acceptors[ai].HandlePropose(b, value) {
					acks++
				}
			}
			if acks >= 2 {
				accepted = append(accepted, proposal{b, value})
			}
		}

		counters := rng.Perm(10)
		for i := 0; i < 6; i++ {
			runProposer(int32(i%2), uint64(counters[i]+1), []string{"A", "B"}[i%2])
		}

		// Safety: all majority-accepted proposals at or above the first
		// chosen ballot must agree with the chosen value.
		if len(accepted) > 1 {
			first := accepted[0]
			for _, p := range accepted[1:] {
				if p.ballot.Compare(first.ballot) >= 0 && p.value != first.value {
					t.Fatalf("seed %d: chosen %q at %v, later chose %q at %v",
						seed, first.value, first.ballot, p.value, p.ballot)
				}
			}
		}
	}
}
