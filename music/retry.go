package music

import (
	"errors"
	"time"

	"repro/internal/store"
)

// IsRetryable classifies an error from any MUSIC operation per the paper's
// §III-A failure semantics ("the client should retry, possibly at another
// MUSIC replica"):
//
//   - Transient, retryable: ErrUnavailable (too few back-end replicas
//     responded), ErrContention (a CAS loop exhausted its retries against
//     competing clients), and ErrNotLockHolder (the lockRef is not first in
//     the locally peeked queue yet — the lock store replica may simply be
//     behind, which another poll or another site resolves).
//   - Terminal: ErrNoLongerLockHolder (the lockRef was released or forcibly
//     preempted), ErrExpired (the critical section overran its T bound),
//     and ErrEpochFenced (a membership change moved the key's placement
//     mid-section). All mean the lockRef is dead; the client must start a
//     new critical section. AwaitLock timeouts are likewise terminal.
//
// Wrapping is preserved end-to-end (every layer uses %w), so classification
// works on errors returned from any depth of the stack.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	// Terminal outcomes dominate: a dead lockRef cannot be revived by
	// retrying, no matter what else went wrong around it.
	if errors.Is(err, ErrNoLongerLockHolder) || errors.Is(err, ErrExpired) ||
		errors.Is(err, ErrEpochFenced) || errors.Is(err, errAwaitTimeout) {
		return false
	}
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, ErrContention) ||
		errors.Is(err, store.ErrContention) ||
		errors.Is(err, ErrNotLockHolder)
}

// IsEpochFenced reports whether err is a live-membership epoch fence: the
// lockRef is dead, but re-running the whole critical section under the new
// epoch's placement is expected to succeed. Section-level drivers (workload
// loops, the soak harness) treat it as a section retry, not a failure.
func IsEpochFenced(err error) bool { return errors.Is(err, ErrEpochFenced) }

// RetryPolicy bounds how a Client re-drives operations that fail with
// retryable errors (IsRetryable). Backoff doubles from BaseBackoff up to
// MaxBackoff with ±50% jitter drawn from the cluster's deterministic
// runtime RNG, so simulated schedules stay reproducible.
type RetryPolicy struct {
	// Attempts is the per-site attempt budget (first try included) before
	// the client gives up or fails over. Defaults to 4; 1 disables retries.
	Attempts int
	// BaseBackoff is the delay before the first retry. Defaults to 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling backoff. Defaults to 2s.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is the policy clients use unless WithRetry overrides it.
var DefaultRetryPolicy = RetryPolicy{
	Attempts:    4,
	BaseBackoff: 25 * time.Millisecond,
	MaxBackoff:  2 * time.Second,
}

// failoverAwait bounds the re-driven lock acquisition at a failover site
// before the interrupted critical operation is retried there.
const failoverAwait = 30 * time.Second

// NoRetry restores the fail-on-first-error behavior (one attempt, no
// backoff). Failover, if configured, still applies after that attempt.
var NoRetry = RetryPolicy{Attempts: 1}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryPolicy.Attempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultRetryPolicy.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	return p
}
