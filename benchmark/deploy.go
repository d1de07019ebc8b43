package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/history"
	"repro/internal/lockstore"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/music"
)

// Planes a workload runs on.
const (
	planeWAN = "simnet" // virtual time, Table II IUs round trips
	planeTCP = "tcp"    // three nettrans nodes on 127.0.0.1, wall clock
)

// tcpSites names the three loopback sites; the WAN plane takes its names
// from the latency profile.
var tcpSites = []string{"site-a", "site-b", "site-c"}

// fabric is the message plane under a deployment: one transport per node
// (the simulated network serves all three nodes through one value), each
// optionally behind the counting wrapper.
type fabric struct {
	plane   string
	rt      sim.Runtime
	virtual *sim.Virtual // nil on the TCP plane
	sites   []string
	trs     []transport.Transport // one per node on TCP; the one network on simnet
	stats   *layerStats           // nil unless counted
	// clock is the run's reference clock (yardstick.go) and now the clock
	// the workload is timed on: the simulator's virtual time on the WAN
	// plane, the reference clock on TCP.
	clock *refClock
	now   func() time.Duration
}

// newFabric builds the plane. seed drives the simulator's schedule and
// jitter; the TCP plane has no seeded behaviour of its own. A non-nil stats
// interposes the counting wrapper on every node.
func newFabric(plane string, seed int64, stats *layerStats, clock *refClock) (*fabric, error) {
	f := &fabric{plane: plane, stats: stats, clock: clock}
	wrap := func(tr transport.Transport) transport.Transport {
		if stats != nil {
			return wrapCounting(tr, stats, f.now)
		}
		return tr
	}
	switch plane {
	case planeWAN:
		v := sim.New(seed)
		f.rt, f.virtual, f.sites, f.now = v, v, simnet.ProfileIUs.Sites(), v.Now
		f.trs = []transport.Transport{wrap(simnet.New(v, simnet.Config{Profile: simnet.ProfileIUs, Seed: seed}))}
	case planeTCP:
		f.rt, f.sites, f.now = sim.NewReal(seed), tcpSites, clock.Now
		var listeners []net.Listener
		fail := func(err error) (*fabric, error) {
			f.close() // the transports built so far, listeners included
			for _, l := range listeners[len(f.trs):] {
				_ = l.Close() // never served; nothing to lose
			}
			return nil, err
		}
		peers := make([]nettrans.Peer, len(tcpSites))
		for i, site := range tcpSites {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("listen for %s: %w", site, err))
			}
			listeners = append(listeners, lis)
			peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: lis.Addr().String()}
		}
		for i, p := range peers {
			tr, err := nettrans.New(f.rt, nettrans.Config{Self: p.ID, Peers: peers, Listener: listeners[i]})
			if err != nil {
				return fail(fmt.Errorf("nettrans for %s: %w", p.Site, err))
			}
			f.trs = append(f.trs, wrap(tr))
		}
	default:
		return nil, fmt.Errorf("unknown plane %q", plane)
	}
	return f, nil
}

// tr returns the transport the i-th site's node registers handlers on and
// calls through.
func (f *fabric) tr(i int) transport.Transport { return f.trs[i%len(f.trs)] }

// close releases every transport (listeners, connections, workers).
func (f *fabric) close() {
	for _, tr := range f.trs {
		tr.Close()
	}
}

// run executes fn on the plane's clock: inside the virtual scheduler on the
// WAN plane (one call per fabric — a sim.Virtual runs once), directly on TCP.
func (f *fabric) run(fn func()) error {
	if f.virtual == nil {
		fn()
		return nil
	}
	return f.virtual.Run(fn)
}

// deployment is MUSIC as users get it: music.NewOverTransport with the zero
// TransportConfig (quorum mode, no leases, cache, adaptive or digest reads)
// over a fabric, one replica per site.
type deployment struct {
	*fabric
	clusters []*music.Cluster  // one on simnet (hosting every site), one per node on TCP
	rec      *history.Recorder // nil unless traced
}

// deploy builds the fabric and the MUSIC stack over it. traced interposes
// the counting wrapper and attaches a history recorder.
func deploy(plane string, seed int64, traced bool, clock *refClock) (*deployment, error) {
	var stats *layerStats
	if traced {
		stats = newLayerStats()
	}
	f, err := newFabric(plane, seed, stats, clock)
	if err != nil {
		return nil, err
	}
	d := &deployment{fabric: f}
	if traced {
		d.rec = history.New(f.rt)
	}
	for i, tr := range f.trs {
		cfg := music.TransportConfig{History: d.rec}
		if len(f.trs) > 1 {
			cfg.LocalNodes = []transport.NodeID{transport.NodeID(i)} // one process-in-miniature per node
		}
		c, err := music.NewOverTransport(tr, cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		d.clusters = append(d.clusters, c)
	}
	return d, nil
}

// cluster returns the music.Cluster hosting the i-th site's replica.
func (d *deployment) cluster(i int) *music.Cluster { return d.clusters[i%len(d.clusters)] }

// storeDeployment is the stack below MUSIC on its own: store.New on every
// node, a coordinator client at the first site and a lock store over it —
// the deployment the lockstore.* and store.* layer metrics are timed on.
type storeDeployment struct {
	*fabric
	st    *store.Client
	locks *lockstore.Service
}

func deployStore(plane string, seed int64, clock *refClock) (*storeDeployment, error) {
	f, err := newFabric(plane, seed, nil, clock)
	if err != nil {
		return nil, err
	}
	var first *store.Cluster
	for i, tr := range f.trs {
		cfg := store.Config{}
		if len(f.trs) > 1 {
			cfg.LocalNodes = []transport.NodeID{transport.NodeID(i)}
		}
		if c := store.New(tr, cfg); i == 0 {
			first = c
		}
	}
	cl := first.Client(0)
	return &storeDeployment{fabric: f, st: cl, locks: lockstore.New(cl)}, nil
}
