// Package music is the public API of this MUSIC reproduction: a replicated
// multi-site key-value store exposing critical sections over geo-distributed
// state with entry-consistency-under-failures (ECF) semantics, after
// "MUSIC: Multi-Site Critical Sections over Geo-Distributed State"
// (Balasubramanian et al., ICDCS 2020).
//
// A Cluster bundles the full deployment of Fig 1 — a multi-site network,
// a Cassandra-like replicated data/lock store, and one MUSIC replica per
// site. Clients bind to a site's replica and run critical sections:
//
//	c, _ := music.New(music.WithProfile(music.ProfileLocal))
//	cl := c.Client(c.Sites()[0])
//	err := c.Run(func() {
//	    err := cl.RunCritical("counter", func(cs *music.CriticalSection) error {
//	        v, _ := cs.Get()
//	        return cs.Put(append(v, '+'))
//	    })
//	    ...
//	})
//
// New builds a cluster on a deterministic virtual-time simulator: every
// operation runs inside Cluster.Run. The same protocol code serves live
// traffic on the wall clock through NewOverTransport over the TCP message
// plane (internal/nettrans), as cmd/musicd does.
package music

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lockstore"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/transport"
)

// LockRef is a per-key unique, increasing lock reference, good for one
// critical section (Table I).
type LockRef int64

// Errors surfaced by critical operations. Retry guidance follows §III-A and
// is encoded by IsRetryable: ErrNotLockHolder, ErrUnavailable and
// ErrContention are retryable (the latter two possibly at another site);
// ErrNoLongerLockHolder and ErrExpired mean the lockRef is dead and a new
// critical section is needed.
var (
	ErrNoLongerLockHolder = core.ErrNoLongerLockHolder
	ErrNotLockHolder      = core.ErrNotLockHolder
	ErrExpired            = core.ErrExpired
	ErrUnavailable        = core.ErrUnavailable
	// ErrContention means a lock-store CAS loop lost against competing
	// clients for its whole retry budget (Zipfian hot keys); backing off
	// and retrying — or enqueueing via another site — usually succeeds.
	ErrContention = lockstore.ErrContention
	// ErrEpochFenced means a live-membership epoch change moved the key's
	// placement while the section ran (or a failover site was asked to
	// adopt a grant for a key it no longer hosts). The lockRef is dead —
	// the fencing replica force-released it so the next holder
	// synchronizes — but the failure is retryable at section granularity:
	// re-run the critical section and it will be granted under the new
	// placement (see IsEpochFenced).
	ErrEpochFenced = core.ErrEpochFenced
)

// Named latency profiles (Table II plus a fast local one for live demos).
const (
	Profile11    = "11"
	ProfileIUs   = "IUs"
	ProfileIUsEu = "IUsEu"
	ProfileLocal = "local"
)

// options collects cluster construction parameters.
type options struct {
	profile      *simnet.Profile
	nodesPerSite int
	t            time.Duration
	seed         int64
	obs          bool
	history      bool
	shards       int
	spares       []string // non-empty makes the cluster dynamic
	leases       bool
	adaptive     bool
}

// defaultRF is the replication factor of every cluster New and
// NewOverTransport build: one copy per site of the three-site profiles.
const defaultRF = 3

// Option configures New.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithProfile selects a named latency profile (Profile11, ProfileIUs,
// ProfileIUsEu, ProfileLocal). The default is ProfileIUs.
func WithProfile(name string) Option {
	return optionFunc(func(o *options) { o.profile = simnet.Named(name) })
}

// WithSimnetProfile runs the cluster on a caller-built latency profile —
// benches that model fabrics the named profiles don't cover (e.g. a 500µs
// metro ring) construct one with simnet.NewProfile and pass it here.
func WithSimnetProfile(p *simnet.Profile) Option {
	return optionFunc(func(o *options) { o.profile = p })
}

// WithNodesPerSite sets how many store nodes each site runs (default 1).
func WithNodesPerSite(n int) Option {
	return optionFunc(func(o *options) { o.nodesPerSite = n })
}

// WithShards partitions each site's MUSIC plane into n shards routed by
// store.ShardOf(key, n): each shard gets its own lock/grant state, its own
// store coordinator (shard i coordinates through the site's i-th node,
// wrapping round when the site has fewer nodes), and its own striped slice
// of every replica's row engine. Cross-shard critical sections stay correct
// through RunCriticalMulti's canonical key order. Default 1.
func WithShards(n int) Option {
	return optionFunc(func(o *options) { o.shards = n })
}

// WithT bounds the duration of a critical section (default 1 minute).
func WithT(t time.Duration) Option {
	return optionFunc(func(o *options) { o.t = t })
}

// WithSeed seeds the simulator for reproducible schedules (default 1).
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.seed = seed })
}

// WithObservability turns on the cluster's metrics registry and causal
// tracer (internal/obs): every layer from the network up through the MUSIC
// core records counters, latency histograms and — inside traced operations —
// spans. Off by default; the disabled path is free.
func WithObservability() Option {
	return optionFunc(func(o *options) { o.obs = true })
}

// WithHistory turns on operation-history recording: every acquire, release,
// forced release, critical put/get/delete, synchronize, failover and
// quorum-level store operation is logged with virtual-time intervals and
// lockRef identity. Read the history with Cluster.History and validate it
// with internal/history's ECF and linearizability checkers. Off by default;
// the disabled path performs zero allocations.
func WithHistory() Option {
	return optionFunc(func(o *options) { o.history = true })
}

// WithHolderLeases turns on site-scoped holder leases: when a site's
// replica certifies a grant, the whole site acquires a clock-skew-bounded
// lease on the key, and any client routed there — not just the lockholder's
// session — serves Get locally for the lease window. Every lease read runs
// the full critical guard, and leases are revoked on release, forced
// release, and epoch fencing (see DESIGN.md "Read plane"). The window is
// min(2s, T − 2·250ms).
func WithHolderLeases() Option {
	return optionFunc(func(o *options) { o.leases = true })
}

// WithAdaptiveReads serves critical gets at ONE consistency by default while
// a live consistency monitor — an online incremental checker over the same
// recorded op history — watches for staleness violations and flips the site
// back to QUORUM reads when the violation rate trips. Detected violations
// also trigger asynchronous quorum repair reads of the affected key.
// The site flips once 3 violations land within a sliding window of 200 weak
// reads. Implies WithHistory (the monitor consumes the recorded op stream).
func WithAdaptiveReads() Option {
	return optionFunc(func(o *options) { o.adaptive = true; o.history = true })
}

// Cluster is a full MUSIC deployment: network, back-end store, and one
// MUSIC replica per site.
type Cluster struct {
	rt       sim.Runtime
	virtual  *sim.Virtual        // nil over a wall-clock transport (nettrans)
	tr       transport.Transport // the message plane everything runs over
	net      *simnet.Network     // non-nil only when tr is a simnet (fault injection)
	st       *store.Cluster
	sites    []string
	replicas map[string]*core.Replica
	obs      *obs.Obs          // nil unless WithObservability
	history  *history.Recorder // nil unless WithHistory
	monitor  *history.Monitor  // nil unless adaptive reads are on

	// Live membership (nil / zero on fixed-membership clusters).
	memView *membership.View // the epoch-versioned site set this cluster follows
	memSite string           // site name stamped on recorded epoch events
	propose func(membership.Change) (membership.Membership, error)
}

// New builds a cluster: a simnet over the chosen latency profile, and
// NewOverTransport over it with every node local, on a virtual-time
// runtime: issue all operations inside Cluster.Run.
func New(opts ...Option) (*Cluster, error) {
	o := options{
		profile:      simnet.ProfileIUs,
		nodesPerSite: 1,
		seed:         1,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.profile == nil {
		return nil, errors.New("music: unknown latency profile")
	}
	if len(o.spares) > 0 {
		o.profile = o.profile.Extend(o.profile.Name()+"+spares", o.spares...)
	}

	rt := sim.New(o.seed)
	// c is assigned once NewOverTransport returns, before any op can run;
	// the monitor's repair hook and the membership proposer read it.
	var c *Cluster
	cfg := TransportConfig{
		T:             o.t,
		Shards:        o.shards,
		Leases:        o.leases,
		AdaptiveReads: o.adaptive,
	}
	if o.obs {
		cfg.Obs = obs.New(rt, obs.Options{})
	}
	if o.history {
		cfg.History = history.New(rt)
	}
	if o.adaptive {
		cfg.Monitor = history.NewMonitor(history.MonitorConfig{
			OnViolation: func(site, key string) {
				if c == nil {
					return
				}
				if rep := c.replicas[site]; rep != nil {
					// Repair asynchronously: a quorum read re-converges the
					// stale replica through the store's read-repair path.
					rt.Go(func() { _ = rep.RepairRead(key) })
				}
			},
		})
		cfg.History.Attach(cfg.Monitor)
	}
	net := simnet.New(rt, simnet.Config{
		Profile:      o.profile,
		NodesPerSite: o.nodesPerSite,
		Seed:         o.seed,
		Obs:          cfg.Obs,
	})
	if len(o.spares) > 0 {
		// Dynamic clusters carve the initial membership out of the non-spare
		// sites; spares run store/replica services from boot but join later.
		spare := make(map[string]bool, len(o.spares))
		for _, s := range o.spares {
			spare[s] = true
		}
		var mems []membership.Member
		var spareNodes []transport.NodeID
		for _, site := range o.profile.Sites() {
			for _, id := range net.NodesInSite(site) {
				if spare[site] {
					spareNodes = append(spareNodes, id)
					continue
				}
				mems = append(mems, membership.Member{ID: id, Site: site})
			}
		}
		initial := membership.New(mems)
		memLog, err := membership.NewLog(membership.LogConfig{
			Transport: net,
			Group:     initial.NodeIDs(),
			Serve:     spareNodes,
			Initial:   initial,
		})
		if err != nil {
			return nil, err
		}
		cfg.Membership = memLog.View()
		// A join leaves ch.Site empty, so it proposes from the first member.
		cfg.Propose = func(ch membership.Change) (membership.Membership, error) {
			return memLog.Propose(c.proposer(ch.Site), ch)
		}
	}
	var err error
	c, err = NewOverTransport(net, cfg)
	return c, err
}

// TransportConfig parameterizes NewOverTransport.
type TransportConfig struct {
	// T bounds the duration of a critical section (default 1 minute).
	T time.Duration
	// Shards partitions each site's MUSIC plane by store.ShardOf (see
	// WithShards). Shard i coordinates through the site's i-th local node,
	// wrapping round when the process hosts fewer nodes. Default 1.
	Shards int
	// LocalNodes lists the transport nodes this process hosts store
	// replicas for, and so the sites it runs a MUSIC replica for. Empty
	// means all nodes (single-process deployment).
	LocalNodes []transport.NodeID
	// Obs supplies the observability sink shared with the transport (nil
	// disables metrics and tracing).
	Obs *obs.Obs
	// History, when set, records every protocol operation for the ECF /
	// linearizability checkers. Pass one shared recorder to every cluster of
	// a multi-deployment test and the merged timeline checks as one history.
	History *history.Recorder
	// Leases turns on site-scoped holder leases (see WithHolderLeases).
	Leases bool
	// AdaptiveReads serves critical gets at ONE while Monitor judges the
	// site safe (see WithAdaptiveReads). The caller owns the monitor — build
	// it with history.NewMonitor and attach it to the shared History recorder
	// so one monitor watches the whole multi-process deployment.
	AdaptiveReads bool
	Monitor       *history.Monitor
	// Membership, when set, switches placement to epoch-versioned live
	// membership driven by this view: the cluster fast-forwards to the
	// view's current epoch and re-applies placement on every later one. The
	// caller owns the view's feed — cmd/musicd feeds it from a config log
	// (group members) or a poller (joiners). Nil keeps fixed membership.
	Membership *membership.View
	// Propose, when set alongside Membership, is how this deployment drives
	// reconfiguration: JoinSite / RetireSite / ReplaceSite submit their
	// change through it. A config-group process proposes through its local
	// log peer; a joiner forwards with membership.ProposeRemote. Nil makes
	// reconfiguration calls fail with ErrNotReplicated (follow-only).
	Propose func(membership.Change) (membership.Membership, error)
}

// NewOverTransport builds a MUSIC deployment over an externally constructed
// transport — the multi-process path: each musicd process brings its own
// TCP transport (internal/nettrans), hosts the store replica for its node,
// and runs the MUSIC replica for its site, while the ring spans every node
// in the peer set. The same call works over a simnet for tests. The caller
// owns fault injection; Close closes the transport.
func NewOverTransport(tr transport.Transport, cfg TransportConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	var members []store.RingNode
	if cfg.Membership != nil {
		members = memberNodes(cfg.Membership.Current())
	}
	st := store.New(tr, store.Config{
		RF:         defaultRF,
		LocalNodes: cfg.LocalNodes,
		History:    cfg.History,
		Shards:     cfg.Shards,
		Members:    members,
	})
	local := cfg.LocalNodes
	if len(local) == 0 {
		local = tr.Nodes()
	}
	// One MUSIC replica per site of the local nodes, in their order; shard i
	// coordinates through the site's i-th local node.
	var sites []string
	siteNodes := make(map[string][]transport.NodeID)
	for _, id := range local {
		s := tr.SiteOf(id)
		if len(siteNodes[s]) == 0 {
			sites = append(sites, s)
		}
		siteNodes[s] = append(siteNodes[s], id)
	}
	c := &Cluster{
		rt:       tr.Runtime(),
		tr:       tr,
		st:       st,
		replicas: make(map[string]*core.Replica, len(sites)),
		obs:      cfg.Obs,
		history:  cfg.History,
	}
	if v, ok := c.rt.(*sim.Virtual); ok {
		c.virtual = v
	}
	if net, ok := tr.(*simnet.Network); ok {
		c.net = net
	}
	// Sites, in cluster order: every site the transport knows about.
	seen := make(map[string]bool)
	for _, id := range tr.Nodes() {
		if s := tr.SiteOf(id); !seen[s] {
			seen[s] = true
			c.sites = append(c.sites, s)
		}
	}
	for _, site := range sites {
		nodes := siteNodes[site]
		clients := make([]*store.Client, cfg.Shards)
		for i := range clients {
			clients[i] = st.Client(nodes[i%len(nodes)])
		}
		c.replicas[site] = core.NewReplicaSharded(clients, core.Config{
			T:             cfg.T,
			History:       cfg.History,
			Leases:        cfg.Leases,
			AdaptiveReads: cfg.AdaptiveReads,
			Monitor:       cfg.Monitor,
		})
	}
	c.monitor = cfg.Monitor
	if cfg.Membership != nil {
		c.propose = cfg.Propose
		c.attachMembership(cfg.Membership, sites[0])
	}
	return c, nil
}

// Replica returns the MUSIC core replica for a site this cluster hosts —
// the handle cmd/musicd serves its REST API from. It panics on a site this
// deployment has no replica for.
func (c *Cluster) Replica(site string) *core.Replica {
	rep, ok := c.replicas[site]
	if !ok {
		panic(fmt.Sprintf("music: no replica for site %q", site))
	}
	return rep
}

// Sites returns the cluster's site names.
func (c *Cluster) Sites() []string { return append([]string(nil), c.sites...) }

// Obs returns the cluster's observability bundle — nil unless the cluster
// was built WithObservability. Use Obs().Tracer() to root traces around
// critical sections and Obs().Metrics() to read counters and histograms.
func (c *Cluster) Obs() *obs.Obs { return c.obs }

// History returns the cluster's operation-history recorder — nil unless the
// cluster was built WithHistory. Feed History().Ops() to history.Check to
// validate the run against the ECF contract.
func (c *Cluster) History() *history.Recorder { return c.history }

// Monitor returns the cluster's live consistency monitor — nil unless
// adaptive reads are on. Snapshot it for each site's current read level and
// violation counters.
func (c *Cluster) Monitor() *history.Monitor { return c.monitor }

// Client returns a client bound to the MUSIC replica at the named site.
// Options tune its transient-failure handling; by default it retries
// retryable errors under DefaultRetryPolicy at that one site and never
// fails over.
func (c *Cluster) Client(site string, opts ...ClientOption) *Client {
	rep, ok := c.replicas[site]
	if !ok {
		panic(fmt.Sprintf("music: unknown site %q", site))
	}
	cl := &Client{c: c, home: site, site: site, rep: rep}
	for _, opt := range opts {
		opt.applyClient(cl)
	}
	for _, s := range cl.failover {
		if _, ok := c.replicas[s]; !ok {
			panic(fmt.Sprintf("music: unknown failover site %q", s))
		}
	}
	return cl
}

// FailoverClient returns a client homed at the named site that fails over
// to every other site of the cluster, in profile order, when the current
// site keeps failing transiently — the full §III-A "retry at another MUSIC
// replica" behavior. On a dynamic cluster the candidate set follows the
// live membership instead: sites that retire drop out of rotation, sites
// that join become eligible, and a client bound to a site the membership
// drops re-binds on its next operation.
func (c *Cluster) FailoverClient(site string, opts ...ClientOption) *Client {
	var others []string
	for _, s := range c.sites {
		if s != site {
			others = append(others, s)
		}
	}
	cl := c.Client(site, append([]ClientOption{WithFailoverSites(others...)}, opts...)...)
	cl.dynamic = c.memView != nil
	return cl
}

// tracer returns the cluster tracer (nil when observability is off).
func (c *Cluster) tracer() *obs.Tracer { return c.obs.Tracer() }

// Run executes fn inside the cluster's virtual-time simulation and drives
// it to completion; over a wall-clock transport it simply calls fn. All operations on
// a virtual-time cluster must happen inside Run.
func (c *Cluster) Run(fn func()) error {
	if c.virtual == nil {
		fn()
		return nil
	}
	return c.virtual.Run(fn)
}

// Now returns the cluster clock (virtual, or wall over nettrans).
func (c *Cluster) Now() time.Duration { return c.rt.Now() }

// Sleep pauses the calling task on the cluster clock.
func (c *Cluster) Sleep(d time.Duration) { c.rt.Sleep(d) }

// Go spawns fn as a concurrent task on the cluster's runtime.
func (c *Cluster) Go(fn func()) { c.rt.Go(fn) }

// Close releases transport resources (listeners, connections);
// virtual clusters need no cleanup.
func (c *Cluster) Close() { c.tr.Close() }

// PartitionSites splits the cluster's sites into isolated groups (fault
// injection for tests and demos). Panics on a transport without fault
// modeling (the real TCP plane — partition it by killing processes).
func (c *Cluster) PartitionSites(groups ...[]string) { c.net.PartitionSites(groups...) }

// Heal removes all partitions.
func (c *Cluster) Heal() { c.net.Heal() }

// CrashSite takes every node in a site down.
func (c *Cluster) CrashSite(site string) {
	for _, id := range c.net.NodesInSite(site) {
		c.net.Crash(id)
	}
}

// RestartSite brings a crashed site back.
func (c *Cluster) RestartSite(site string) {
	for _, id := range c.net.NodesInSite(site) {
		c.net.Restart(id)
	}
}

// SetLossRate drops each inter-node message independently with probability
// p (0 restores reliable delivery). Panics on a transport without fault
// modeling, like PartitionSites.
func (c *Cluster) SetLossRate(p float64) { c.net.SetLossRate(p) }

// Virtual returns the cluster's virtual-time simulator — nil over a
// wall-clock transport. The chaos explorer uses it to bound schedules (SetDeadline) and
// randomize task interleavings (SetScheduleShuffle).
func (c *Cluster) Virtual() *sim.Virtual { return c.virtual }
