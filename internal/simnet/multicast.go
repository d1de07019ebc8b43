package simnet

import (
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// CallResult is one target's outcome in a Multicast.
type CallResult = transport.CallResult

// Multicast sends req to every target in parallel and collects replies until
// `need` of them have succeeded, all targets have answered or failed, or the
// timeout elapses — whichever comes first. It returns the results gathered
// so far; callers count successes themselves. This is the primitive behind
// quorum reads/writes, Paxos rounds and log replication.
func (n *Network) Multicast(from NodeID, targets []NodeID, svc string, req any, need int, timeout time.Duration) []CallResult {
	return n.MulticastLate(from, targets, svc, req, need, timeout, nil)
}

// MulticastLate is Multicast that hands every leg still outstanding at
// return to late, once, when its call completes (see transport.Transport).
// Each leg is a task running one call, so a leg's deadline is the call's
// own timeout. req is encoded once, and every leg sends those bytes; each
// delivery decodes its own copy.
func (n *Network) MulticastLate(from NodeID, targets []NodeID, svc string, req any, need int, timeout time.Duration, late func(CallResult)) []CallResult {
	// The umbrella span is installed task-current before the fan-out so the
	// per-target tasks (which inherit the spawner's task-local) parent their
	// rpc spans under it. Its name and notes are built only when tracing.
	var mc *obs.Span
	if tr := n.obs.Tracer(); tr != nil {
		mc = tr.Child("multicast:" + svc)
		mc.Annotatef("fanout", "%d targets, need %d", len(targets), need)
	}

	encoded, size := n.encode(svc, req)
	c := n.newCollector(len(targets), late)
	for _, to := range targets {
		m := n.newMessage(from, to, svc, req, encoded, size)
		m.mc, m.timeout = c, timeout
		n.rt.Go(m.legFn)
	}

	deadline := n.rt.Now() + timeout
	collected := make([]CallResult, 0, len(targets))
	successes := 0
	for len(collected) < len(targets) {
		remaining := deadline - n.rt.Now()
		if remaining <= 0 {
			break
		}
		r, err := c.results.RecvTimeout(remaining)
		if err != nil {
			break
		}
		collected = append(collected, r)
		if r.Err == nil {
			successes++
			if need > 0 && successes >= need {
				break
			}
		}
	}
	// Closing turns every later send into a refused one, so each leg that
	// has not finished yet reports to late on its own. Legs that finished
	// but were never received are still queued; they report here.
	c.results.Close()
	if late != nil {
		for r, ok := c.results.TryRecv(); ok; r, ok = c.results.TryRecv() {
			late(r)
		}
	}
	c.release()
	if mc != nil {
		mc.Annotatef("got", "%d/%d ok", successes, len(targets))
		if need > 0 && successes < need {
			mc.Fail(nil)
		}
		mc.End()
	}
	return collected
}

// Successes filters a Multicast result set down to successful replies.
func Successes(results []CallResult) []CallResult {
	return transport.Successes(results)
}
