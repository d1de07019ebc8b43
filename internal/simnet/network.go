package simnet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeID identifies a node within a Network. IDs are dense, site-major.
type NodeID = transport.NodeID

// Handler processes one inbound request on a node and returns the reply.
type Handler = transport.Handler

// Sizer lets a message without a wire codec declare its payload size in
// bytes so the network can still model NIC serialization and bandwidth.
// Messages with a registered codec (internal/wire) are charged their exact
// encoded size instead; Sizer is the fallback for protocol baselines (zab,
// raft, crdb) whose payloads never leave the process.
type Sizer interface {
	WireSize() int
}

// RemoteError wraps an application-level error returned by a remote
// handler, distinguishing it from transport failures such as timeouts.
type RemoteError = transport.RemoteError

// ErrTimeout is returned by Call when no reply arrives within the timeout
// (due to partitions, crashes, loss, or a down destination).
var ErrTimeout = transport.ErrTimeout

// ErrNoHandler is returned (as a RemoteError) when the destination has no
// handler registered for the service.
var ErrNoHandler = transport.ErrNoHandler

// Network implements the message plane contract; protocol code reaches it
// through the interface, tests and fault injection through the concrete
// type.
var (
	_ transport.Transport     = (*Network)(nil)
	_ transport.InlineHandler = (*Network)(nil)
)

// The testbed every simulated node models: the paper's servers have eight
// cores and a 1 Gbit/s NIC. Each message's one-way latency gains uniform
// jitter of up to jitterFrac of the link's, and its size a fixed wire
// overhead; a Call with no timeout of its own waits rpcTimeout.
const (
	cpuWorkers   = 8
	nicBandwidth = 125e6 // bytes/s
	jitterFrac   = 0.02
	msgOverhead  = 256 // bytes
	rpcTimeout   = 4 * time.Second
)

// Config describes the cluster to build.
type Config struct {
	// Profile supplies the inter-site latency matrix. Required.
	Profile *Profile
	// NodesPerSite is the number of nodes placed in each profile site.
	// Defaults to 1.
	NodesPerSite int
	// Seed is read by nothing: jitter and loss draw from the virtual
	// runtime's own RNG, which sim.New seeds.
	//
	// Deprecated: seed the runtime with sim.New instead. The field stays
	// only until the benchmark module stops setting it.
	Seed int64
	// Obs enables observability: RPCs made inside a traced operation emit
	// spans (rpc, NIC wait, link transit, CPU-queue wait, handler service
	// time) and the network keeps per-service counters and latency
	// histograms. Nil (the default) disables all of it at zero cost.
	Obs *obs.Obs
}

// model is the testbed a network simulates. New always builds on testbed;
// only this package's tests build on another, to switch a model off (a
// bandwidth or jitter of 0 models none) or to starve a node's CPU.
type model struct {
	workers    int
	bandwidth  float64
	jitterFrac float64
}

var testbed = model{workers: cpuWorkers, bandwidth: nicBandwidth, jitterFrac: jitterFrac}

// Network is the simulated multi-site cluster, in virtual time. All methods
// are safe to call from any task: the runtime runs one at a time, so the
// network's state needs no lock.
type Network struct {
	rt      *sim.Virtual
	profile *Profile
	model   model
	obs     *obs.Obs

	nodes []*Node

	loss    float64
	blocked map[[2]NodeID]bool

	msgs       freeList[message]   // released message records (see message)
	collectors freeList[collector] // released multicast collectors

	// enc is where every payload is encoded, once, before its bytes are
	// copied into the records that carry it. One suffices: an encode never
	// waits, and the runtime runs one step or task at a time.
	enc wire.Encoder
}

// New builds a network of len(profile.Sites()) × NodesPerSite nodes over
// the virtual runtime v. The simulated plane runs in virtual time only: a
// live deployment runs internal/nettrans on the wall clock.
func New(v *sim.Virtual, cfg Config) *Network { return newNetwork(v, cfg, testbed) }

func newNetwork(v *sim.Virtual, cfg Config, m model) *Network {
	if cfg.Profile == nil {
		panic("simnet: Config.Profile is required")
	}
	if cfg.NodesPerSite == 0 {
		cfg.NodesPerSite = 1
	}
	n := &Network{
		rt:      v,
		profile: cfg.Profile,
		model:   m,
		obs:     cfg.Obs,
		blocked: make(map[[2]NodeID]bool),
	}
	id := NodeID(0)
	for _, site := range cfg.Profile.Sites() {
		for i := 0; i < cfg.NodesPerSite; i++ {
			node := &Node{
				net:      n,
				id:       id,
				site:     site,
				up:       true,
				handlers: make(map[string]handlerSpec),
				cpu:      sim.NewServers(v, m.workers),
			}
			n.nodes = append(n.nodes, node)
			id++
		}
	}
	return n
}

// Runtime returns the runtime the network was built on.
func (n *Network) Runtime() sim.Runtime { return n.rt }

// Obs returns the network's observability sink (nil when disabled).
func (n *Network) Obs() *obs.Obs { return n.obs }

// Tracer returns the network's tracer (nil when observability is disabled).
func (n *Network) Tracer() *obs.Tracer { return n.obs.Tracer() }

// Nodes returns all node IDs.
func (n *Network) Nodes() []NodeID {
	ids := make([]NodeID, len(n.nodes))
	for i := range n.nodes {
		ids[i] = NodeID(i)
	}
	return ids
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node {
	return n.nodes[id]
}

// SiteOf returns the site name hosting id.
func (n *Network) SiteOf(id NodeID) string { return n.nodes[id].site }

// RTT returns the modeled round-trip time between two sites.
func (n *Network) RTT(a, b string) time.Duration { return n.profile.RTT(a, b) }

// RPCTimeout returns the default Call timeout.
func (n *Network) RPCTimeout() time.Duration { return rpcTimeout }

// Handle registers h for service svc on node with zero modeled CPU cost.
func (n *Network) Handle(node NodeID, svc string, h Handler) {
	n.nodes[node].Handle(svc, h)
}

// HandleWithCost registers h for svc on node with a modeled CPU cost of
// base + perKB·(size/1KiB) per request.
func (n *Network) HandleWithCost(node NodeID, svc string, h Handler, base, perKB time.Duration) {
	n.nodes[node].HandleWithCost(svc, h, base, perKB)
}

// HandleInline implements transport.InlineHandler: it registers h like
// HandleWithCost, on the promise that h never waits. Its requests are then
// delivered, served and answered as sim.Steps, with no task of their own.
// On the virtual runtime a handler that waits anyway fails the run.
func (n *Network) HandleInline(node NodeID, svc string, h Handler, base, perKB time.Duration) {
	n.nodes[node].handle(svc, handlerSpec{fn: h, base: base, perKB: perKB, inline: true})
}

// OnRestart registers a hook run when node restarts after a crash.
func (n *Network) OnRestart(node NodeID, fn func()) {
	n.nodes[node].OnRestart(fn)
}

// Work charges cost of modeled CPU time against node, blocking the caller
// until a server of its CPU has burned it.
func (n *Network) Work(node NodeID, cost time.Duration) {
	n.nodes[node].Work(cost)
}

// NodesInSite returns the IDs of all nodes in the named site.
func (n *Network) NodesInSite(site string) []NodeID {
	var ids []NodeID
	for _, node := range n.nodes {
		if node.site == site {
			ids = append(ids, node.id)
		}
	}
	return ids
}

// Close implements transport.Transport. It shuts nothing down: a node's CPU
// runs no task or goroutine of its own, so there is nothing to release, and
// the network keeps working after Close.
func (n *Network) Close() {}

// Call sends req from -> to for service svc and waits for the reply using
// the default RPC timeout.
func (n *Network) Call(from, to NodeID, svc string, req any) (any, error) {
	return n.CallTimeout(from, to, svc, req, rpcTimeout)
}

// CallTimeout is Call with an explicit timeout. A transport failure
// (partition, loss, crash) surfaces as ErrTimeout; an error returned by the
// remote handler surfaces wrapped in RemoteError.
//
// When observability is enabled and the calling task is inside a traced
// operation, the call emits an rpc:<svc> span (always closed — a call into a
// crashed or partitioned node ends it failed at the timeout) with child
// spans for each modeled delay component.
func (n *Network) CallTimeout(from, to NodeID, svc string, req any, timeout time.Duration) (any, error) {
	encoded, size := n.encode(svc, req)
	return n.call(n.newMessage(from, to, svc, req, encoded, size), timeout)
}

// call sends m, a request not yet sent, and waits up to timeout for its
// reply.
func (n *Network) call(m *message, timeout time.Duration) (any, error) {
	n.startCall(m, n.obs.Tracer().Current().Context())
	resp, err := m.reply.AwaitTimeout(timeout)
	n.endCall(m, err)
	return resp, err
}

// startCall sends m as a call whose rpc span, with tracing on, is a child
// of parent. A multicast leg passes its umbrella span's context, since a
// step has no task-local to find it in.
func (n *Network) startCall(m *message, parent obs.SpanContext) {
	// The span name, route annotation and latency histogram are gated on an
	// enabled tracer: with obs off (the default) the call path must not pay
	// them.
	if tr := n.obs.Tracer(); tr != nil {
		m.rpc = tr.Detached(parent, "rpc:"+m.svc, n.rt.Now())
		m.rpc.Annotatef("route", "%s/n%d → %s/n%d", n.nodes[m.from].site, m.from, n.nodes[m.to].site, m.to)
		m.parent = m.rpc.Context()
		m.timed, m.start = true, n.rt.Now()
	}
	m.awaited = true
	m.refs = 2 // the caller, and the message until its reply is in
	n.dispatch(m)
}

// endCall ends the caller's wait on m, which ended with err: it closes the
// rpc span, books the call's latency and lets go of m.
func (n *Network) endCall(m *message, err error) {
	if m.timed {
		m.rpc.EndErr(err)
		n.obs.Metrics().Histogram("simnet_rpc_latency", obs.Labels{"svc": m.svc, "site": n.nodes[m.from].site}).
			Observe(n.rt.Now() - m.start)
	}
	m.release()
}

// Send delivers req from -> to without waiting for a reply (best effort).
// Inside a traced operation the one-way message's components attach directly
// under the caller's current span.
func (n *Network) Send(from, to NodeID, svc string, req any) {
	encoded, size := n.encode(svc, req)
	m := n.newMessage(from, to, svc, req, encoded, size)
	m.parent = n.obs.Tracer().Current().Context()
	m.refs = 1 // the message, until it is lost or delivered
	n.dispatch(m)
}

// dispatch models the full path: sender NIC, propagation, receiver CPU
// admission, handler execution, and the reply trip back. m.parent is the
// span the delay-component spans hang off (zero when untraced).
//
// The caller passes m with its request's encode result: payloads with a
// registered wire codec are marshaled at the sender and unmarshaled at the
// receiver, so the handler sees a decoded copy — every simulated RPC
// exercises the same encode/decode path the TCP transport uses, and the
// byte count charged to the NIC is the true encoded size.
func (n *Network) dispatch(m *message) {
	src, dst := n.nodes[m.from], n.nodes[m.to]
	sent := n.rt.Now()
	nic, flight, ok := n.transit(src, dst, m.size)
	if !ok {
		n.countDrop(m.svc)
		m.release()
		return // lost; caller times out
	}
	tr := n.obs.Tracer()
	if nic > 0 {
		tr.SpanAt(m.parent, "net.nic", sent, sent+nic)
	}
	tr.SpanAt(m.parent, "net.transit", sent+nic, sent+nic+flight)
	// A request for a handler that never waits arrives as a step. Any
	// other, or one for a service not registered yet, gets a delivery task,
	// which may wait.
	if m.spec, m.found = dst.handler(m.svc); m.found && m.spec.inline {
		m.arrive.After(nic + flight)
		return
	}
	n.rt.After(nic+flight, m.deliverFn)
}

// errNoHandler is the error a request for an unregistered service gets.
func errNoHandler(svc string, to NodeID) error {
	return fmt.Errorf("%w: %q on node %d", ErrNoHandler, svc, to)
}

// countDrop bumps the dropped-message counter (no-op when obs is disabled).
func (n *Network) countDrop(svc string) {
	if n.obs == nil {
		return
	}
	n.obs.Metrics().Counter("simnet_msgs_dropped_total", obs.Labels{"svc": svc}).Inc()
}

// sendReply models the reply trip of m's handler result; a one-way Send's
// message ends here. Successful replies go through the same encode/decode
// path as requests; errors stay in-process values (the TCP transport
// encodes them separately).
func (n *Network) sendReply(m *message, resp any, err error) {
	if !m.awaited {
		m.release()
		return
	}
	src, dst := n.nodes[m.to], n.nodes[m.from]
	sent := n.rt.Now()
	size := msgOverhead
	if err == nil {
		var encoded []byte
		encoded, size = n.encode("reply", resp)
		m.respBuf = append(m.respBuf, encoded...)
	}
	nic, flight, ok := n.transit(src, dst, size)
	if !ok {
		m.release()
		return
	}
	tr := n.obs.Tracer()
	if nic > 0 {
		tr.SpanAt(m.parent, "net.nic", sent, sent+nic, obs.Annotation{Key: "dir", Value: "reply"})
	}
	tr.SpanAt(m.parent, "net.transit", sent+nic, sent+nic+flight, obs.Annotation{Key: "dir", Value: "reply"})
	m.resp, m.err = resp, err
	m.settle.After(nic + flight)
}

// encode marshals msg through its registered wire codec, returning the
// encoded bytes and the modeled wire size (msgOverhead plus the exact
// encoded length). The bytes are the network's scratch encoder's, valid
// until the next encode: the caller copies them into the records that carry
// them. Types without a codec — the in-process protocol baselines — fall
// back to their Sizer estimate and no bytes.
func (n *Network) encode(svc string, msg any) (data []byte, size int) {
	n.enc.Truncate(0)
	switch err := wire.MarshalTo(&n.enc, msg); {
	case err == nil:
		data = n.enc.Bytes()
		return data, msgOverhead + len(data)
	case !errors.Is(err, wire.ErrUnregistered):
		panic(fmt.Sprintf("simnet: marshal %q payload %T: %v", svc, msg, err))
	}
	size = msgOverhead
	if s, ok := msg.(Sizer); ok {
		size += s.WireSize()
	}
	return nil, size
}

// decode reconstructs the receiver's copy of a payload produced by encode,
// sharing no bytes with encoded. Payloads without a codec (no bytes) pass
// through by reference. A decode failure is a codec bug (the bytes came
// straight from the encoder), so it panics loudly rather than dropping the
// message.
func (n *Network) decode(svc string, orig any, encoded []byte) any {
	if len(encoded) == 0 {
		return orig
	}
	msg, err := wire.Unmarshal(encoded)
	if err != nil {
		panic(fmt.Sprintf("simnet: unmarshal %q payload %T: %v", svc, orig, err))
	}
	return msg
}

// transit computes the one-way delivery delay from src to dst for a message
// of the given size, split into its two components: nic (sender NIC queueing
// plus serialization) and flight (propagation plus jitter), so tracing can
// report them as separate spans. ok is false if the message is dropped
// (either endpoint down, partitioned, or lost).
func (n *Network) transit(src, dst *Node, size int) (nic, flight time.Duration, ok bool) {
	if !src.isUp() || !dst.isUp() {
		return 0, 0, false
	}
	if src.id == dst.id {
		return 0, 20 * time.Microsecond, true // loopback: no NIC, no loss
	}

	if n.blocked[pairKey(src.id, dst.id)] {
		return 0, 0, false
	}
	if n.loss > 0 && n.rt.Rand().Float64() < n.loss {
		return 0, 0, false
	}

	prop := n.profile.OneWay(src.site, dst.site)
	jitter := time.Duration(0)
	if n.model.jitterFrac > 0 {
		jitter = time.Duration(n.rt.Rand().Float64() * n.model.jitterFrac * float64(prop))
	}
	return src.chargeNIC(n.rt.Now(), size, n.model.bandwidth), prop + jitter, true
}

func pairKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}
