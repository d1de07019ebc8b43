// Command musicd serves MUSIC's REST API (Fig 1's multi-site web service).
//
// Single-process mode runs every site of a latency profile in one process:
// one TCP transport node per site on 127.0.0.1, each wired exactly as a
// multi-process node is, and one HTTP listener per site, each backed by
// that site's MUSIC replica. The profile's round-trip times are put on the
// loopback links: every frame between two sites is held back for half
// their RTT (internal/chaosnet's latency fault, on for the whole run), so
// -profile IUs shows Table II's WAN rounds in every REST call. -shards
// runs every shard of a site on its one node.
//
//	musicd -addr :8080                      # one listener, first site
//	musicd -addrs :8080,:8081,:8082         # one listener per site
//	musicd -profile IUs -t 30s
//	musicd -obs=false                       # disable /metrics and /traces
//
// Multi-process mode runs ONE site per process over real TCP (-peers
// switches it on): each process hosts its node's store replica and its
// site's MUSIC replica, and the processes form the replication ring among
// themselves.
//
//	musicd -peers peers.json -site ohio -listen :7001 -addr :8080
//
// Every process clocks from the Unix epoch. Adding -history makes each node
// record its operation history and serve it on GET /v1/history; fetching
// every site's ops and merging them by timestamp yields one timeline the
// internal/history ECF checkers can validate (cmd/musicd's tests do exactly
// this).
//
// -leases issues site-scoped holder read leases: any client routed to the
// lockholder's site serves GET /v1/keys/{key} locally for the
// clock-skew-bounded lease window. -adaptive serves critical gets at ONE
// consistency while the live monitor judges the site safe, flips the site
// back to QUORUM when staleness violations trip the threshold, and exports
// the per-site standing on GET /v1/consistency (it implies -history, which
// the monitor needs).
//
// where peers.json lists every node in the deployment:
//
//	[
//	  {"id": 0, "site": "ohio",         "addr": "127.0.0.1:7001"},
//	  {"id": 1, "site": "ncalifornia",  "addr": "127.0.0.1:7002"},
//	  {"id": 2, "site": "oregon",       "addr": "127.0.0.1:7003"},
//	  {"id": 3, "site": "dublin",       "addr": "127.0.0.1:7004", "spare": true}
//	]
//
// Live membership: marking a peer "spare": true provisions it outside the
// initial membership — it boots, serves store RPCs, and refuses critical
// sections until a join brings its site in. Any spare in peers.json switches
// the whole deployment to epoch-versioned membership: the non-spare nodes
// replicate a config log (internal/membership over internal/raft), spare
// processes follow it by polling, and every process answers
//
//	GET  /v1/membership                    the current epoch + site set
//	POST /v1/admin/membership              {"op":"join"|"retire"|"replace",
//	                                        "site": s, "with": spare}
//
// A spare process started with -join proposes its own site into the
// membership once it is up (idempotent across restarts), then bulk-pulls
// the rows the new placement assigns it. On every epoch the processes
// update their transport peer tables from the membership's recorded
// addresses, so replacement processes at new addresses become dialable
// without restarts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/history"
	"repro/internal/httpapi"
	"repro/internal/loopback"
	"repro/internal/membership"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/music"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "musicd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("musicd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "HTTP listen address (first site in single-process mode)")
		addrs   = fs.String("addrs", "", "comma-separated per-site listen addresses (overrides -addr)")
		profile = fs.String("profile", music.ProfileLocal, "latency profile: 11, IUs, IUsEu, local")
		t       = fs.Duration("t", time.Minute, "critical-section bound T")
		obsOn   = fs.Bool("obs", true, "serve metrics and traces on /metrics and /traces")
		shards  = fs.Int("shards", 1, "per-site lock/data plane shards (keys routed by consistent hash)")

		peersPath = fs.String("peers", "", "peers.json path; enables multi-process mode")
		site      = fs.String("site", "", "this process's site (multi-process mode)")
		listen    = fs.String("listen", "", "transport TCP listen address (default: this node's addr from peers.json)")
		node      = fs.Int("node", -1, "this process's node id (default: the single -site node in peers.json)")
		leases    = fs.Bool("leases", false, "issue site-scoped holder read leases: any client at the lockholder's site serves Get locally for the lease window")
		adaptive  = fs.Bool("adaptive", false, "serve critical gets at ONE while the live consistency monitor judges the site safe; the monitor's standing is served on GET /v1/consistency (implies -history)")

		histOn = fs.Bool("history", false, "record the operation history and serve it on /v1/history (timestamps share the Unix epoch so per-process histories merge)")
		join   = fs.Bool("join", false, "propose this spare site into the live membership at startup (multi-process mode; the node must be marked \"spare\" in peers.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rf := replicaFlags{t: *t, obsOn: *obsOn, histOn: *histOn, shards: *shards, leases: *leases, adaptive: *adaptive}
	if *peersPath != "" {
		return runMulti(multiConfig{
			peersPath: *peersPath,
			site:      *site,
			listen:    *listen,
			node:      *node,
			httpAddr:  *addr,
			join:      *join,
		}, rf)
	}
	if *join {
		return fmt.Errorf("-join needs multi-process mode (-peers)")
	}
	listenAddrs := []string{*addr}
	if *addrs != "" {
		listenAddrs = strings.Split(*addrs, ",")
	}
	return runSingle(*profile, listenAddrs, rf)
}

// replicaFlags are the flags that shape every node's MUSIC replica, in
// either mode.
type replicaFlags struct {
	t                time.Duration
	obsOn, histOn    bool
	shards           int
	leases, adaptive bool
}

// runSingle runs every site of the named latency profile in this process,
// one node per site over TCP on 127.0.0.1, each wired by startNode, with
// the profile's RTTs on the links between them. Site i's REST API is served
// on listenAddrs[i].
func runSingle(profileName string, listenAddrs []string, rf replicaFlags) error {
	prof := simnet.Named(profileName)
	if prof == nil {
		return fmt.Errorf("unknown latency profile %q", profileName)
	}
	sites := prof.Sites()
	if len(listenAddrs) > len(sites) {
		return fmt.Errorf("%d addresses for %d sites", len(listenAddrs), len(sites))
	}

	// One runtime for every node, on the Unix-epoch clock a multi-process
	// node uses (see runMulti).
	rt := sim.NewRealAt(time.Unix(0, 0), time.Now().UnixNano())
	delays := chaosnet.NewInjector(rt, linkDelays(prof))
	delays.Start()
	peers, listeners, err := loopback.Listen(sites)
	if err != nil {
		return err
	}
	clusters := make([]*music.Cluster, len(peers))
	for i, p := range peers {
		c, stop, err := startNode(rt, nodeSlot{
			self:     p,
			peers:    peers,
			listener: listeners[i],
			dial:     delays.Dial(p.Site),
		}, rf)
		if err != nil {
			for _, l := range listeners[i+1:] {
				_ = l.Close()
			}
			return err
		}
		defer stop()
		clusters[i] = c
	}

	errc := make(chan error, len(listenAddrs))
	for i, a := range listenAddrs {
		srv := newAPIServer(clusters[i], sites[i])
		log.Printf("serving site %s on %s", sites[i], a)
		go func(a string) {
			errc <- http.ListenAndServe(a, srv)
		}(a)
	}
	return <-errc
}

// linkDelays is the chaosnet schedule that holds every frame between two
// sites of p back for half their round trip, from start to the end of the
// run: p's RTTs, put on loopback links.
func linkDelays(p *simnet.Profile) chaosnet.Schedule {
	sites := p.Sites()
	s := chaosnet.Schedule{Sites: sites}
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			s.Events = append(s.Events, chaosnet.Event{
				For:   math.MaxInt64,
				Class: chaosnet.ClassLatency,
				A:     a,
				B:     b,
				Delay: p.RTT(a, b) / 2,
			})
		}
	}
	return s
}

// newAPIServer builds a site's REST server over one client. The client
// holds no per-request state and the site's replica partitions its plane by
// shard, so the one client drives every shard concurrently.
func newAPIServer(c *music.Cluster, site string) *httpapi.Server {
	return httpapi.New(c.Client(site))
}

// multiConfig bundles runMulti's own flag values.
type multiConfig struct {
	peersPath, site, listen string
	node                    int
	httpAddr                string
	join                    bool
}

// runMulti is one process of a multi-process deployment: a TCP transport
// node in the peer ring, the store replica for that node, the MUSIC replica
// for its site, and the site's REST listener.
func runMulti(mc multiConfig, rf replicaFlags) error {
	peers, spares, err := loadPeers(mc.peersPath)
	if err != nil {
		return err
	}
	self, err := pickSelf(peers, mc.site, mc.node)
	if err != nil {
		return err
	}
	if mc.join && !spares[self.ID] {
		return fmt.Errorf("-join: node %d is not marked \"spare\" in %s", self.ID, mc.peersPath)
	}
	if len(spares) == len(peers) {
		return fmt.Errorf("%s marks every node spare; at least one initial member is required", mc.peersPath)
	}
	slot := nodeSlot{self: self, peers: peers, spares: spares}
	if mc.listen != "" {
		lis, err := net.Listen("tcp", mc.listen)
		if err != nil {
			return fmt.Errorf("listen %s: %w", mc.listen, err)
		}
		slot.listener = lis
	}

	// Every process clocks from the Unix epoch, so the stamps each one mints
	// — LWW write stamps, grant start times, ballots — order across
	// processes whatever their start times, and the per-process histories
	// merge into one timeline. The random source is seeded afresh: it draws
	// the nonces by which the lock store recognises a process's own enqueue,
	// and two processes, or two incarnations of one, drawing the same
	// sequence would each adopt the lockRef the other minted.
	rt := sim.NewRealAt(time.Unix(0, 0), time.Now().UnixNano())
	c, stop, err := startNode(rt, slot, rf)
	if err != nil {
		return err
	}
	defer stop()

	// Crash-restart catch-up: pull whatever this node's key ranges
	// accumulated while the process was down, before serving traffic. On a
	// fresh cluster boot peers may not be up yet — that is fine, the pull
	// finds nothing and read repair covers the race.
	if n, serr := c.SyncLocal(); serr != nil {
		log.Printf("startup state transfer: %v", serr)
	} else {
		log.Printf("startup state transfer: caught up %d rows", n)
	}
	if mc.join {
		go joinSelf(c, self.Site)
	}

	srv := newAPIServer(c, self.Site)
	log.Printf("node %d (site %s): REST on %s, %d peers", self.ID, self.Site, mc.httpAddr, len(peers)-1)
	return http.ListenAndServe(mc.httpAddr, srv)
}

// nodeSlot is one node's place in a deployment and the way it reaches the
// others.
type nodeSlot struct {
	self     nettrans.Peer
	peers    []nettrans.Peer
	spares   map[transport.NodeID]bool                            // any spare makes membership live
	listener net.Listener                                         // nil: listen on self.Addr
	dial     func(nettrans.Peer, time.Duration) (net.Conn, error) // nil: plain TCP
}

// startNode wires one node on rt: its TCP transport, its membership (live
// when the peer set has spares), its observability and history, and the
// MUSIC cluster over them, which hosts this node alone (and, with adaptive
// reads, builds the monitor). stop tears it all down.
func startNode(rt *sim.Real, n nodeSlot, rf replicaFlags) (c *music.Cluster, stop func(), err error) {
	var rec *history.Recorder
	if rf.histOn || rf.adaptive {
		// Adaptive reads imply -history: the monitor observes the recorded
		// op stream, so it cannot run without a recorder.
		rec = history.New(rt)
	}
	var ob *obs.Obs
	if rf.obsOn {
		ob = obs.New(rt)
	}
	tr, err := nettrans.New(rt, nettrans.Config{
		Self:     n.self.ID,
		Peers:    n.peers,
		Listener: n.listener,
		Dial:     n.dial,
		Obs:      ob,
	})
	if err != nil {
		return nil, nil, err
	}
	view, propose, stopMembership, err := startMembership(tr, n)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	c, err = music.NewOverTransport(tr, music.TransportConfig{
		T:             rf.t,
		Shards:        rf.shards,
		LocalNodes:    []transport.NodeID{n.self.ID},
		Obs:           ob,
		History:       rec,
		Leases:        rf.leases,
		AdaptiveReads: rf.adaptive,
		Membership:    view,
		Propose:       propose,
	})
	if err != nil {
		stopMembership()
		tr.Close()
		return nil, nil, err
	}
	log.Printf("node %d (site %s): transport on %s", n.self.ID, n.self.Site, tr.Addr())
	return c, func() { c.Close(); stopMembership() }, nil
}

// startMembership wires the node's live membership when the peer set has
// spares, and returns a nil view (fixed membership) when it has none. The
// initial members replicate the config log, spares follow by polling, and
// both kinds can drive proposals.
func startMembership(tr *nettrans.Transport, n nodeSlot) (view *membership.View, propose func(membership.Change) (membership.Membership, error), stop func(), err error) {
	stop = func() {}
	if len(n.spares) == 0 {
		return nil, nil, stop, nil
	}
	var mems []membership.Member
	var seeds []transport.NodeID
	for _, p := range n.peers {
		if n.spares[p.ID] {
			continue
		}
		mems = append(mems, membership.Member{ID: p.ID, Site: p.Site, Addr: p.Addr})
		seeds = append(seeds, p.ID)
	}
	initial := membership.New(mems)
	self := n.self.ID
	if n.spares[self] {
		// Outside the config group: follow the log by polling members,
		// forward proposals through a serving member.
		view = membership.NewView(initial)
		stop = membership.Poll(tr, self, seeds, view, 0).Stop
		propose = func(ch membership.Change) (membership.Membership, error) {
			var lastErr error
			for _, seed := range seeds {
				m, perr := membership.ProposeRemote(tr, self, seed, ch, 0)
				if perr == nil {
					return m, nil
				}
				lastErr = perr
			}
			return membership.Membership{}, lastErr
		}
	} else {
		memLog, lerr := membership.NewLog(membership.LogConfig{
			Transport: tr,
			Group:     initial.NodeIDs(),
			Local:     []transport.NodeID{self},
			Initial:   initial,
		})
		if lerr != nil {
			return nil, nil, nil, lerr
		}
		stop = memLog.Stop
		view = memLog.View()
		propose = func(ch membership.Change) (membership.Membership, error) {
			return memLog.Propose(self, ch)
		}
	}
	// Refresh the transport's peer table before the store ring sees each
	// epoch (View subscribers run in registration order), so a node the
	// new placement brings in is dialable by the time state transfer and
	// replication want it — including replacement processes at addresses
	// peers.json never listed.
	view.Subscribe(func(m membership.Membership) {
		log.Printf("membership: %s", m)
		for _, mem := range m.Members {
			if mem.ID == self || mem.Addr == "" {
				continue
			}
			if aerr := tr.AddPeer(mem.ID, mem.Site, mem.Addr); aerr != nil {
				log.Printf("membership: AddPeer n%d: %v", mem.ID, aerr)
			}
		}
	})
	return view, propose, stop, nil
}

// joinSelf proposes this process's site into the membership, retrying until
// the site is a member. It is idempotent across restarts: if a previous run
// already joined, the poller catches the view up and the loop exits without
// proposing a duplicate.
func joinSelf(c *music.Cluster, site string) {
	for attempt := 0; ; attempt++ {
		if c.Membership().HasSite(site) {
			break
		}
		m, err := c.JoinSite(site)
		if err == nil {
			log.Printf("joined membership: %s", m)
			break
		}
		log.Printf("join %s (attempt %d): %v", site, attempt+1, err)
		time.Sleep(time.Second)
	}
	// Wait for the join epoch to reach this process's own view, then pull
	// the rows the new placement assigns this node (state transfer). The
	// propose path's SyncLocal ran before the poller observed the epoch, so
	// this second pull is the one that actually moves data.
	for i := 0; i < 100 && !c.Membership().HasSite(site); i++ {
		time.Sleep(100 * time.Millisecond)
	}
	if n, err := c.SyncLocal(); err != nil {
		log.Printf("join state transfer: %v", err)
	} else {
		log.Printf("join state transfer: %d rows", n)
	}
}

func loadPeers(path string) ([]nettrans.Peer, map[transport.NodeID]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []loopback.PeerEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("%s: empty peer set", path)
	}
	peers := make([]nettrans.Peer, len(entries))
	spares := make(map[transport.NodeID]bool)
	for i, e := range entries {
		peers[i] = e.Peer
		if e.Spare {
			spares[e.Peer.ID] = true
		}
	}
	return peers, spares, nil
}

// pickSelf resolves which peer this process is: an explicit -node id, or
// the unique node of -site.
func pickSelf(peers []nettrans.Peer, site string, node int) (nettrans.Peer, error) {
	if node >= 0 {
		for _, p := range peers {
			if int(p.ID) == node {
				return p, nil
			}
		}
		return nettrans.Peer{}, fmt.Errorf("node %d not in peers.json", node)
	}
	if site == "" {
		return nettrans.Peer{}, fmt.Errorf("multi-process mode needs -site or -node")
	}
	var match []nettrans.Peer
	for _, p := range peers {
		if p.Site == site {
			match = append(match, p)
		}
	}
	switch len(match) {
	case 1:
		return match[0], nil
	case 0:
		return nettrans.Peer{}, fmt.Errorf("site %q not in peers.json", site)
	default:
		return nettrans.Peer{}, fmt.Errorf("site %q has %d nodes; pick one with -node", site, len(match))
	}
}
