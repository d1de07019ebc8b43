// Package loopback deploys MUSIC over the TCP message plane on 127.0.0.1:
// one nettrans node per entry of a site list, each with a MUSIC cluster
// that hosts that node alone, all in one process on one wall-clock runtime.
// It is a multi-process musicd deployment in miniature: the simulated
// network runs in virtual time only, so this is how a test, a benchmark or
// a campaign runs MUSIC on the wall clock.
//
// DeployProcs is the real thing: a process harness that builds cmd/musicd
// and runs one musicd OS process per site on 127.0.0.1, which the musicd
// process tests and the soak's restarts and reconfig scenarios drive
// through httpapi.Client.
package loopback

import (
	"fmt"
	"net"
	"time"

	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/music"
)

// Listen binds one 127.0.0.1 listener on a free port per entry of sites
// and returns the peer set they form, node i at sites[i]. A site may
// appear more than once: each entry is a node.
func Listen(sites []string) ([]nettrans.Peer, []net.Listener, error) {
	peers := make([]nettrans.Peer, len(sites))
	listeners := make([]net.Listener, len(sites))
	for i, site := range sites {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				_ = l.Close()
			}
			return nil, nil, fmt.Errorf("loopback: listen for %s: %w", site, err)
		}
		listeners[i] = lis
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: lis.Addr().String()}
	}
	return peers, listeners, nil
}

// Clusters is a deployment's clusters, node i's at index i.
type Clusters []*music.Cluster

// Close closes every cluster, and with it its transport and listener.
func (cs Clusters) Close() {
	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
}

// Deploy starts one nettrans node per entry of sites, node i at sites[i],
// and over each a MUSIC cluster hosting that node alone.
//
// node is every node's nettrans.Config template (timeouts, Obs, RTT):
// Deploy fills in Self, Peers and Listener, and, when dial is non-nil, the
// Dial hook dial returns for the node's site — internal/chaosnet's
// Injector.Dial fits here. cfg is every cluster's music.TransportConfig,
// with LocalNodes set to the node. On an error Deploy closes what it built.
func Deploy(rt *sim.Real, sites []string, node nettrans.Config,
	dial func(site string) func(nettrans.Peer, time.Duration) (net.Conn, error),
	cfg music.TransportConfig) (Clusters, error) {
	peers, listeners, err := Listen(sites)
	if err != nil {
		return nil, err
	}
	cs := make(Clusters, 0, len(peers))
	fail := func(err error) (Clusters, error) {
		cs.Close()
		for _, l := range listeners[len(cs):] {
			if l != nil {
				_ = l.Close()
			}
		}
		return nil, err
	}
	for i, p := range peers {
		nc := node
		nc.Self, nc.Peers, nc.Listener = p.ID, peers, listeners[i]
		if dial != nil {
			nc.Dial = dial(p.Site)
		}
		tr, err := nettrans.New(rt, nc)
		if err != nil {
			return fail(fmt.Errorf("loopback: nettrans for %s: %w", p.Site, err))
		}
		mc := cfg
		mc.LocalNodes = []transport.NodeID{p.ID}
		c, err := music.NewOverTransport(tr, mc)
		if err != nil {
			tr.Close()
			listeners[i] = nil // closed with tr
			return fail(fmt.Errorf("loopback: music for %s: %w", p.Site, err))
		}
		cs = append(cs, c)
	}
	return cs, nil
}
