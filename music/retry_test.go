package music

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
)

func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"unavailable", ErrUnavailable, true},
		{"lockstore contention", ErrContention, true},
		{"store CAS contention", store.ErrContention, true},
		{"not lock holder", ErrNotLockHolder, true},
		{"no longer lock holder", ErrNoLongerLockHolder, false},
		{"expired", ErrExpired, false},
		{"epoch fenced", ErrEpochFenced, false},
		{"wrapped epoch fenced", fmt.Errorf("criticalPut: %w", ErrEpochFenced), false},
		{"await timeout", errAwaitTimeout, false},
		{"unknown", errors.New("disk on fire"), false},

		// Wrapping is preserved end-to-end, so classification must see
		// through fmt.Errorf %w chains of any depth.
		{"wrapped unavailable", fmt.Errorf("put k: %w", ErrUnavailable), true},
		{"doubly wrapped contention", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", ErrContention)), true},
		{"wrapped expired", fmt.Errorf("critical put: %w", ErrExpired), false},

		// Terminal outcomes dominate mixed errors: a dead lockRef cannot
		// be revived even if a transient failure rode along.
		{"joined terminal+transient", errors.Join(ErrNoLongerLockHolder, ErrUnavailable), false},
		{"joined expired+contention", errors.Join(ErrExpired, ErrContention), false},
		{"joined transient pair", errors.Join(ErrUnavailable, ErrContention), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsRetryable(tc.err); got != tc.want {
				t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	got := RetryPolicy{}.withDefaults()
	if got != DefaultRetryPolicy {
		t.Errorf("zero policy withDefaults = %+v, want DefaultRetryPolicy %+v", got, DefaultRetryPolicy)
	}

	// Partial policies keep what was set and fill only the zero fields.
	partial := RetryPolicy{Attempts: 2, MaxBackoff: 10 * time.Second}.withDefaults()
	if partial.Attempts != 2 || partial.MaxBackoff != 10*time.Second {
		t.Errorf("withDefaults overwrote explicit fields: %+v", partial)
	}
	if partial.BaseBackoff != DefaultRetryPolicy.BaseBackoff {
		t.Errorf("withDefaults left zero fields unfilled: %+v", partial)
	}

	// NoRetry means one attempt; the remaining knobs are irrelevant but
	// must not default Attempts back up.
	if NoRetry.withDefaults().Attempts != 1 {
		t.Errorf("NoRetry.withDefaults().Attempts = %d, want 1", NoRetry.withDefaults().Attempts)
	}
}

func TestFailoverClientSiteOrder(t *testing.T) {
	c := newTestCluster(t, WithSeed(1))
	cl := c.FailoverClient("ncalifornia")
	if cl.HomeSite() != "ncalifornia" || cl.Site() != "ncalifornia" {
		t.Errorf("home/site = %q/%q, want ncalifornia", cl.HomeSite(), cl.Site())
	}
	want := []string{"ohio", "oregon"}
	if len(cl.failover) != len(want) {
		t.Fatalf("failover sites = %v, want %v", cl.failover, want)
	}
	for i, s := range want {
		if cl.failover[i] != s {
			t.Fatalf("failover sites = %v, want %v", cl.failover, want)
		}
	}
}

func TestClientPanicsOnUnknownFailoverSite(t *testing.T) {
	c := newTestCluster(t, WithSeed(1))
	defer func() {
		if recover() == nil {
			t.Error("unknown failover site did not panic")
		}
	}()
	c.Client("ohio", WithFailoverSites("atlantis"))
}
