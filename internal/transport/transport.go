// Package transport defines the message plane every protocol in this
// repository is written against: an addressed RPC fabric over which nodes
// register service handlers and issue calls, one-way sends, and quorum
// multicasts.
//
// Two implementations exist. internal/simnet models a multi-site cluster on
// a sim.Runtime (virtual or wall clock) with WAN latencies, NIC bandwidth,
// per-node CPUs and fault injection; internal/nettrans carries the same
// messages over real TCP connections between processes. Protocol code in
// internal/store, internal/lockstore, internal/core and music holds a
// Transport and cannot tell the two apart — the conformance suite under
// internal/transport/conformance pins the shared behavioral contract.
//
// Payloads cross a Transport as Go values, but both implementations route
// registered message types through internal/wire: the simulated network
// marshals and unmarshals every registered payload (so tests exercise the
// real codecs and the bandwidth model charges exact encoded bytes), and the
// TCP transport has no other way to move a value between processes.
package transport

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// NodeID identifies a node within a Transport. IDs are dense, site-major.
type NodeID int

// Handler processes one inbound request on a node and returns the reply.
type Handler func(from NodeID, req any) (any, error)

// RemoteError wraps an application-level error returned by a remote
// handler, distinguishing it from transport failures such as timeouts.
type RemoteError struct {
	Err error
}

func (e *RemoteError) Error() string { return "remote: " + e.Err.Error() }

// Unwrap exposes the handler's error to errors.Is / errors.As.
func (e *RemoteError) Unwrap() error { return e.Err }

// ErrTimeout is returned by Call when no reply arrives within the timeout —
// partitions, crashes, message loss, a dead TCP peer, or a down destination
// all surface the same way.
var ErrTimeout = sim.ErrTimeout

// ErrNoHandler is returned (as a RemoteError) when the destination has no
// handler registered for the service.
var ErrNoHandler = errors.New("transport: no handler for service")

func init() {
	// Keep the no-handler sentinel recognizable across a process boundary.
	wire.RegisterError(1, ErrNoHandler)
}

// CallResult is one target's outcome in a Multicast.
type CallResult struct {
	From NodeID // the target that produced this result
	Resp any
	Err  error
}

// Successes filters a Multicast result set down to successful replies.
func Successes(results []CallResult) []CallResult {
	var ok []CallResult
	for _, r := range results {
		if r.Err == nil {
			ok = append(ok, r)
		}
	}
	return ok
}

// Transport is the message plane protocol code talks through.
//
// The methods split into three groups: topology (Nodes, SiteOf, NodesInSite,
// RTT), node services (Handle, HandleWithCost, OnRestart, Work), and
// messaging (Call, CallTimeout, Send, Multicast, MulticastLate). A transport
// also carries the runtime its tasks are scheduled on and the shared
// observability sink.
type Transport interface {
	// Runtime returns the clock/scheduler the transport's tasks run on.
	Runtime() sim.Runtime
	// Obs returns the observability sink (nil when disabled).
	Obs() *obs.Obs
	// Tracer returns the shared tracer; it is nil-safe to call through a
	// disabled sink.
	Tracer() *obs.Tracer

	// Nodes returns all node IDs, local and remote.
	Nodes() []NodeID
	// SiteOf returns the site name hosting id.
	SiteOf(id NodeID) string
	// NodesInSite returns the IDs of all nodes in the named site.
	NodesInSite(site string) []NodeID
	// RTT returns the modeled (or configured) round-trip time between two
	// sites; implementations without latency knowledge return 0.
	RTT(a, b string) time.Duration
	// RPCTimeout returns the default Call timeout.
	RPCTimeout() time.Duration

	// Handle registers h for service svc on a node this transport hosts,
	// with zero modeled CPU cost.
	Handle(node NodeID, svc string, h Handler)
	// HandleWithCost registers h for svc on node; each request consumes
	// base + perKB·(size/1KiB) of modeled CPU before the handler runs.
	// Implementations backed by real CPUs ignore the cost.
	HandleWithCost(node NodeID, svc string, h Handler, base, perKB time.Duration)
	// OnRestart registers a hook run when node restarts after a crash;
	// implementations without crash modeling never invoke it.
	OnRestart(node NodeID, fn func())
	// Work charges cost of modeled CPU time against node, blocking the
	// caller until it is burned. A no-op on real-CPU transports.
	Work(node NodeID, cost time.Duration)

	// Call sends req from -> to for service svc and waits for the reply
	// using the default RPC timeout.
	Call(from, to NodeID, svc string, req any) (any, error)
	// CallTimeout is Call with an explicit timeout. A transport failure
	// (partition, loss, crash, broken connection) surfaces as ErrTimeout; an
	// error returned by the remote handler surfaces wrapped in RemoteError.
	CallTimeout(from, to NodeID, svc string, req any, timeout time.Duration) (any, error)
	// Send delivers req from -> to without waiting for a reply (best
	// effort).
	Send(from, to NodeID, svc string, req any)
	// Multicast sends req to every target in parallel and collects replies
	// until `need` of them have succeeded, all targets have answered or
	// failed, or the timeout elapses — whichever comes first. It returns the
	// results gathered so far; callers count successes themselves. A leg
	// still outstanding at return is abandoned: its reply, if one ever
	// comes, is dropped. Multicast is MulticastLate with a nil late.
	Multicast(from NodeID, targets []NodeID, svc string, req any, need int, timeout time.Duration) []CallResult
	// MulticastLate is Multicast that does not abandon its stragglers.
	// Every leg still outstanding when the call returns reports its outcome
	// to late exactly once: its reply when it arrives, or ErrTimeout when
	// the leg's deadline (the call's start plus timeout) passes. A leg in
	// the returned slice never reaches late. late runs on whatever
	// goroutine, task or step completes the leg, possibly concurrently with other
	// legs, and must not block — the same never-wait rule as
	// InlineHandler. The store's quorum write uses it so a replica that has
	// not acked by the quorum still gets a hinted handoff if its write
	// fails.
	MulticastLate(from NodeID, targets []NodeID, svc string, req any, need int, timeout time.Duration, late func(CallResult)) []CallResult

	// Close releases transport resources (listeners, connections, worker
	// pools). Further calls fail or time out.
	Close()
}

// PeerEditor is the optional capability of transports whose peer set can
// change while the process runs — a membership join must make the new site's
// nodes dialable, and a retire should drop their connections. The TCP plane
// (internal/nettrans) implements it; the simulated plane does not (its
// universe is fixed at construction — spares are provisioned up front and
// membership decides who *serves*, not who exists). Callers type-assert:
//
//	if pe, ok := tr.(transport.PeerEditor); ok { pe.AddPeer(id, site, addr) }
type PeerEditor interface {
	// AddPeer makes id dialable at addr within site. Re-adding an existing
	// id updates its address (the replacement-process case) and drops any
	// connection to the old one.
	AddPeer(id NodeID, site, addr string) error
	// RemovePeer forgets id and closes its connections. Removing the
	// process's own node or an unknown id is an error.
	RemovePeer(id NodeID) error
}

// InlineHandler is the optional capability of transports that can run a
// handler on the goroutine that read its request off the wire, instead of
// handing it to a goroutine of its own. Both planes implement it, because
// waking another goroutine costs more than a handler that touches one row
// in memory. The TCP plane (internal/nettrans) runs the handler on the
// connection's read loop. The simulated plane (internal/simnet) delivers,
// serves and answers the request as sim.Steps, with no task of its own, at
// the instants and in the order a task would have; on virtual time it
// also enforces the promise below, failing the run when the handler waits.
// Callers type-assert and fall back to HandleWithCost:
//
//	if ih, ok := tr.(transport.InlineHandler); ok { ih.HandleInline(node, svc, h, base, perKB) }
type InlineHandler interface {
	// HandleInline registers h for svc on node like HandleWithCost, on the
	// promise that h never waits: not on another RPC, a timer, a promise, a
	// channel, or a lock that anyone holds across one of those. Every later
	// request on the same connection queues behind an inline handler, so one
	// that waits stalls the link — and deadlocks it if what it waits for
	// needs that link, as a handler that calls back to its caller does.
	HandleInline(node NodeID, svc string, h Handler, base, perKB time.Duration)
}

// AddrReporter is the optional capability of transports that know their
// peers' dialable addresses (the TCP plane). Membership changes proposed
// through such a transport carry each arriving node's address, so every
// process applying the new epoch can AddPeer nodes it has never dialed.
type AddrReporter interface {
	// AddrOf returns id's listen address, or "" for an unknown peer.
	AddrOf(id NodeID) string
}
