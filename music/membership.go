package music

import (
	"fmt"

	"repro/internal/membership"
	"repro/internal/store"
	"repro/internal/transport"
)

// Live membership: a dynamic cluster replicates its site set through an
// epoch-versioned config log (internal/membership over internal/raft) and
// recomputes placement per epoch on the consistent-hash ring. Sites can
// join, retire, or be replaced without stopping traffic — in-flight
// critical sections whose keys move are preempted by core's epoch fence
// (ErrEpochFenced, retryable at section granularity) and everything else
// keeps running. Fixed-membership clusters are untouched: they never build
// a config log and their placement stays the historical modulo walk.

// WithSpareSites switches the cluster to epoch-versioned live membership —
// placement moves to the consistent-hash ring, a config log is replicated
// across the initial sites, and Cluster.JoinSite / RetireSite / ReplaceSite
// reconfigure the running cluster — and extends the latency profile with
// the sites a later join brings in. Spares start *outside* the initial
// membership: their nodes run store and MUSIC replicas from boot (refusing
// critical sections while unjoined) so a later JoinSite or ReplaceSite needs
// no new processes. Each spare gets the profile's worst inter-site RTT to
// every other site.
func WithSpareSites(sites ...string) Option {
	return optionFunc(func(o *options) { o.spares = append(o.spares, sites...) })
}

// memberNodes converts a membership into ring nodes (store.RingNode is an
// alias of placement.Node, so the result feeds ApplyMembership, EpochEvent
// and store.Config.Members alike).
func memberNodes(m membership.Membership) []store.RingNode {
	out := make([]store.RingNode, 0, len(m.Members))
	for _, mem := range m.Members {
		out = append(out, store.RingNode{ID: mem.ID, Site: mem.Site})
	}
	return out
}

// attachMembership binds a membership view to the cluster: placement
// fast-forwards to the view's epoch, every later epoch is applied to the
// store and recorded as a history epoch event, and clients with dynamic
// failover start resolving candidate sites from the live membership. site
// names this deployment in the recorded epoch events (each process of a
// multi-process cluster logs epochs as it applies them; identical
// re-announcements are the checker's normal case).
func (c *Cluster) attachMembership(view *membership.View, site string) {
	c.memView, c.memSite = view, site
	cur := view.Current()
	c.st.ApplyMembership(cur.Epoch, memberNodes(cur))
	c.history.EpochEvent(site, cur.Epoch, defaultRF, memberNodes(cur))
	view.Subscribe(func(m membership.Membership) {
		c.st.ApplyMembership(m.Epoch, memberNodes(m))
		c.history.EpochEvent(c.memSite, m.Epoch, defaultRF, memberNodes(m))
	})
}

// Membership returns the current epoch-versioned membership. The zero
// Membership (epoch 0) means the cluster runs fixed membership.
func (c *Cluster) Membership() membership.Membership {
	if c.memView == nil {
		return membership.Membership{}
	}
	return c.memView.Current()
}

// MembershipView exposes the live membership view (nil on fixed-membership
// clusters) for layers that subscribe themselves, like cmd/musicd.
func (c *Cluster) MembershipView() *membership.View { return c.memView }

// Epoch returns the placement epoch the store currently follows (always 1
// on fixed-membership clusters).
func (c *Cluster) Epoch() int64 { return c.st.Epoch() }

// siteMembers lists a site's transport nodes as arriving members. On a
// transport that knows peer addresses (the TCP plane) each member carries
// its dialable address, so processes learning the new epoch can AddPeer.
func (c *Cluster) siteMembers(site string) ([]membership.Member, error) {
	var nodes []transport.NodeID
	for _, id := range c.tr.Nodes() {
		if c.tr.SiteOf(id) == site {
			nodes = append(nodes, id)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("music: unknown site %q", site)
	}
	ar, _ := c.tr.(transport.AddrReporter)
	add := make([]membership.Member, 0, len(nodes))
	for _, id := range nodes {
		mem := membership.Member{ID: id, Site: site}
		if ar != nil {
			mem.Addr = ar.AddrOf(id)
		}
		add = append(add, mem)
	}
	return add, nil
}

// JoinSite adds a provisioned spare site to the membership: the change is
// replicated through the config log, every subscriber recomputes placement
// for the new epoch, and the joining site's nodes bulk-pull the rows the
// new ring assigns them (state transfer). Sections on keys that moved are
// epoch-fenced; everything else is undisturbed.
func (c *Cluster) JoinSite(site string) (membership.Membership, error) {
	add, err := c.siteMembers(site)
	if err != nil {
		return membership.Membership{}, err
	}
	return c.reconfigure(membership.Change{Op: membership.OpJoin, Add: add}, site)
}

// RetireSite removes a site from the membership (planned decommission).
// The retired site's replicas refuse further critical sections and its
// in-flight holders are preempted; clients with dynamic failover re-bind
// to a surviving site.
func (c *Cluster) RetireSite(site string) (membership.Membership, error) {
	return c.reconfigure(membership.Change{Op: membership.OpRetire, Site: site}, site)
}

// ReplaceSite swaps a (typically crashed) site for a provisioned spare in
// one epoch — the recovery path when a site is lost rather than drained.
func (c *Cluster) ReplaceSite(site, with string) (membership.Membership, error) {
	add, err := c.siteMembers(with)
	if err != nil {
		return membership.Membership{}, err
	}
	return c.reconfigure(membership.Change{Op: membership.OpReplace, Site: site, Add: add}, site)
}

// reconfigure proposes one membership change and then runs state transfer
// so nodes whose key ranges widened catch up. The proposal is issued from
// a member node outside the affected site — the affected site may be
// crashed or partitioned (the replace-under-partition case) and a crashed
// node cannot drive RPCs. Transfer errors are not fatal: any new quorum
// intersects the old one on at least one replica (bounded movement), so
// read repair converges the remaining rows behind the scenes.
func (c *Cluster) reconfigure(ch membership.Change, affected string) (membership.Membership, error) {
	var (
		m   membership.Membership
		err error
	)
	switch {
	case c.propose != nil:
		// Multi-process: the deployment supplied its own propose path
		// (local log peer, or ProposeRemote through a serving member).
		m, err = c.propose(ch)
	case c.memLog != nil:
		m, err = c.memLog.Propose(c.proposer(affected), ch)
	default:
		return membership.Membership{}, membership.ErrNotReplicated
	}
	if err != nil {
		return m, err
	}
	_, _ = c.st.SyncLocal(nil)
	return m, nil
}

// SyncLocal bulk-pulls into this deployment's local store replicas every row
// the current placement assigns them — the catch-up step a process runs
// after a crash-restart (before serving) or after joining a cluster whose
// data predates it. Per-peer errors are tolerated; read repair converges the
// remainder. It returns the number of rows that changed.
func (c *Cluster) SyncLocal() (int, error) { return c.st.SyncLocal(nil) }

// proposer picks a member node outside the affected site to drive a
// proposal from.
func (c *Cluster) proposer(affected string) transport.NodeID {
	cur := c.memView.Current()
	for _, mem := range cur.Members {
		if mem.Site != affected {
			return mem.ID
		}
	}
	if len(cur.Members) > 0 {
		return cur.Members[0].ID
	}
	return c.tr.Nodes()[0]
}
