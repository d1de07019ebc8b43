package simnet

import (
	"time"

	"repro/internal/sim"
)

// Node is one machine in the network: a service registry, a CPU of
// Config.Workers servers bounding how much work it can process per unit
// time, and a NIC whose egress serializes outbound bytes at the configured
// bandwidth.
type Node struct {
	net  *Network
	id   NodeID
	site string
	cpu  *sim.Servers

	up        bool
	handlers  map[string]handlerSpec
	onRestart []func()
	nicBusy   time.Duration
}

type handlerSpec struct {
	fn     Handler
	base   time.Duration
	perKB  time.Duration
	inline bool // registered with HandleInline: fn never waits
}

// cost returns the CPU time this request consumes on the node.
func (s handlerSpec) cost(size int) time.Duration {
	return s.base + time.Duration(float64(s.perKB)*float64(size)/1024)
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Site returns the node's site name.
func (n *Node) Site() string { return n.site }

// Handle registers h for service svc with zero modeled CPU cost.
func (n *Node) Handle(svc string, h Handler) {
	n.HandleWithCost(svc, h, 0, 0)
}

// HandleWithCost registers h for svc; each request consumes
// base + perKB·(size/1KiB) of one CPU server before the handler runs, which
// is what bounds the node's saturation throughput.
func (n *Node) HandleWithCost(svc string, h Handler, base, perKB time.Duration) {
	n.handle(svc, handlerSpec{fn: h, base: base, perKB: perKB})
}

func (n *Node) handle(svc string, spec handlerSpec) {
	n.handlers[svc] = spec
}

// OnRestart registers a hook run when the node restarts after a crash,
// letting services reset volatile state while keeping durable state.
func (n *Node) OnRestart(fn func()) {
	n.onRestart = append(n.onRestart, fn)
}

func (n *Node) handler(svc string) (handlerSpec, bool) {
	s, ok := n.handlers[svc]
	return s, ok
}

func (n *Node) isUp() bool {
	return n.up
}

// Work charges cost of CPU time to this node, blocking the caller until a
// server of its CPU has burned it. Coordinator-side logic (which runs in
// the client's task but "on" a node) uses this to model its CPU usage.
func (n *Node) Work(cost time.Duration) {
	if !n.isUp() {
		return
	}
	n.cpu.Serve(cost)
}

// chargeNIC reserves the sender NIC for size bytes and returns the total
// local delay (queueing behind earlier messages plus serialization).
func (n *Node) chargeNIC(now time.Duration, size int, bandwidth float64) time.Duration {
	if bandwidth <= 0 {
		return 0
	}
	ser := time.Duration(float64(size) / bandwidth * float64(time.Second))
	start := now
	if n.nicBusy > start {
		start = n.nicBusy
	}
	n.nicBusy = start + ser
	return n.nicBusy - now
}

// Crash takes the node down: inbound and outbound messages drop and queued
// work is discarded on admission.
func (n *Network) Crash(id NodeID) {
	n.nodes[id].up = false
}

// Restart brings a crashed node back up and runs its restart hooks.
func (n *Network) Restart(id NodeID) {
	node := n.nodes[id]
	node.up = true
	for _, fn := range append([]func(){}, node.onRestart...) {
		fn()
	}
}

// SetLossRate drops each inter-node message independently with probability p.
func (n *Network) SetLossRate(p float64) {
	n.loss = p
}

// PartitionNodes splits the cluster into the given groups; messages between
// nodes in different groups are dropped. Nodes absent from every group stay
// connected to all groups. Partitions replace any previous partition.
func (n *Network) PartitionNodes(groups ...[]NodeID) {
	group := make(map[NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			group[id] = gi + 1
		}
	}
	n.blocked = make(map[[2]NodeID]bool)
	for a := 0; a < len(n.nodes); a++ {
		for b := a + 1; b < len(n.nodes); b++ {
			ga, oka := group[NodeID(a)]
			gb, okb := group[NodeID(b)]
			if oka && okb && ga != gb {
				n.blocked[pairKey(NodeID(a), NodeID(b))] = true
			}
		}
	}
}

// PartitionSites partitions whole sites from each other.
func (n *Network) PartitionSites(groups ...[]string) {
	nodeGroups := make([][]NodeID, len(groups))
	for i, sites := range groups {
		for _, site := range sites {
			nodeGroups[i] = append(nodeGroups[i], n.NodesInSite(site)...)
		}
	}
	n.PartitionNodes(nodeGroups...)
}

// Isolate cuts a single node off from every other node.
func (n *Network) Isolate(id NodeID) {
	for other := range n.nodes {
		if NodeID(other) != id {
			n.blocked[pairKey(id, NodeID(other))] = true
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.blocked = make(map[[2]NodeID]bool)
}
