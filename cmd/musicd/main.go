// Command musicd serves MUSIC's REST API (Fig 1's multi-site web service).
//
// Single-process mode runs the whole cluster in one process over the
// simulated message plane on the wall clock: one HTTP listener per site,
// each backed by that site's MUSIC replica.
//
//	musicd -addr :8080                      # one listener, first site
//	musicd -addrs :8080,:8081,:8082         # one listener per site
//	musicd -profile local -t 30s
//	musicd -obs=false                       # disable /metrics and /traces
//
// Multi-process mode runs ONE site per process over real TCP (-peers
// switches it on): each process hosts its node's store replica and its
// site's MUSIC replica, and the processes form the replication ring among
// themselves.
//
//	musicd -peers peers.json -site ohio -listen :7001 -addr :8080
//
// Every process clocks from the Unix epoch. Adding -history makes it record
// its operation history and serve it on GET /v1/history; fetching every site's
// ops and merging them by timestamp yields one timeline the internal/history
// ECF checkers can validate (cmd/musicd's tests do exactly this).
//
// -leases issues site-scoped holder read leases: any client routed to the
// lockholder's site serves GET /v1/keys/{key} locally for the
// clock-skew-bounded lease window. -adaptive serves critical gets at ONE
// consistency while the live monitor judges the site safe, flips the site
// back to QUORUM when staleness violations trip the threshold, and exports
// the per-site standing on GET /v1/consistency (multi-process mode implies
// -history, which the monitor needs).
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
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/httpapi"
	"repro/internal/membership"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
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
		adaptive  = fs.Bool("adaptive", false, "serve critical gets at ONE while the live consistency monitor judges the site safe; the monitor's standing is served on GET /v1/consistency (multi-process mode implies -history)")

		histOn = fs.Bool("history", false, "record the operation history and serve it on /v1/history (multi-process mode; timestamps share the Unix epoch so per-process histories merge)")
		join   = fs.Bool("join", false, "propose this spare site into the live membership at startup (multi-process mode; the node must be marked \"spare\" in peers.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peersPath != "" {
		return runMulti(multiConfig{
			peersPath: *peersPath,
			site:      *site,
			listen:    *listen,
			node:      *node,
			httpAddr:  *addr,
			t:         *t,
			obsOn:     *obsOn,
			histOn:    *histOn,
			join:      *join,
			shards:    *shards,
			leases:    *leases,
			adaptive:  *adaptive,
		})
	}
	if *join {
		return fmt.Errorf("-join needs multi-process mode (-peers)")
	}

	opts := []music.Option{music.WithProfile(*profile), music.WithRealTime(), music.WithT(*t)}
	if *leases {
		opts = append(opts, music.WithHolderLeases())
	}
	if *adaptive {
		opts = append(opts, music.WithAdaptiveReads())
	}
	if *shards > 1 {
		// Each shard coordinates through its own store node, so give every
		// site one node per shard.
		opts = append(opts, music.WithShards(*shards), music.WithNodesPerSite(*shards))
	}
	if *obsOn {
		opts = append(opts, music.WithObservability())
	}
	c, err := music.New(opts...)
	if err != nil {
		return err
	}
	defer c.Close()

	sites := c.Sites()
	listenAddrs := []string{*addr}
	if *addrs != "" {
		listenAddrs = strings.Split(*addrs, ",")
	}
	if len(listenAddrs) > len(sites) {
		return fmt.Errorf("%d addresses for %d sites", len(listenAddrs), len(sites))
	}

	errc := make(chan error, len(listenAddrs))
	for i, a := range listenAddrs {
		site := sites[i]
		srv := newAPIServer(c, site, *shards)
		log.Printf("serving site %s on %s", site, a)
		go func(a string) {
			errc <- http.ListenAndServe(a, srv)
		}(a)
	}
	return <-errc
}

// newAPIServer builds a site's REST server: one client per plane shard,
// routed by store.ShardOf inside httpapi, so the HTTP front end drives all
// shards concurrently instead of funneling through one client.
func newAPIServer(c *music.Cluster, site string, shards int) *httpapi.Server {
	if shards < 1 {
		shards = 1
	}
	cls := make([]*music.Client, shards)
	for i := range cls {
		cls[i] = c.Client(site)
	}
	return httpapi.NewSharded(cls)
}

// multiConfig bundles runMulti's flag values.
type multiConfig struct {
	peersPath, site, listen string
	node                    int
	httpAddr                string
	t                       time.Duration
	obsOn, histOn, join     bool
	shards                  int
	leases, adaptive        bool
}

// runMulti is one process of a multi-process deployment: a TCP transport
// node in the peer ring, the store replica for that node, the MUSIC replica
// for its site, and the site's REST listener.
func runMulti(mc multiConfig) error {
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

	// Every process clocks from the Unix epoch, so the stamps each one mints
	// — LWW write stamps, grant start times, ballots — order across
	// processes whatever their start times, and the per-process histories
	// merge into one timeline. The random source is seeded afresh: it draws
	// the nonces by which the lock store recognises a process's own enqueue,
	// and two processes, or two incarnations of one, drawing the same
	// sequence would each adopt the lockRef the other minted.
	rt := sim.NewRealAt(time.Unix(0, 0), time.Now().UnixNano())
	var rec *history.Recorder
	if mc.histOn || mc.adaptive {
		// Adaptive reads imply -history: the monitor observes the recorded
		// op stream, so it cannot run without a recorder.
		rec = history.New(rt)
	}
	// The monitor watches this process's weak reads for staleness and flips
	// the site back to QUORUM on its trip threshold; repairRead (assigned
	// once the cluster exists) wires its violation hook to a quorum read
	// that re-converges the stale replica.
	var mon *history.Monitor
	var repairRead func(key string)
	if mc.adaptive {
		mon = history.NewMonitor(history.MonitorConfig{
			OnViolation: func(site, key string) {
				if repairRead != nil && site == self.Site {
					repairRead(key)
				}
			},
		})
		rec.Attach(mon)
	}
	var ob *obs.Obs
	if mc.obsOn {
		ob = obs.New(rt, obs.Options{})
	}
	cfg := nettrans.Config{Self: self.ID, Peers: peers, Obs: ob}
	if mc.listen != "" {
		lis, err := net.Listen("tcp", mc.listen)
		if err != nil {
			return fmt.Errorf("listen %s: %w", mc.listen, err)
		}
		cfg.Listener = lis
	}
	tr, err := nettrans.New(rt, cfg)
	if err != nil {
		return err
	}

	// Any spare in peers.json switches the deployment to live membership:
	// the initial members replicate the config log, spares follow by
	// polling, and both kinds can drive proposals.
	var (
		view    *membership.View
		propose func(membership.Change) (membership.Membership, error)
	)
	if len(spares) > 0 {
		var mems []membership.Member
		var seeds []transport.NodeID
		for _, p := range peers {
			if spares[p.ID] {
				continue
			}
			mems = append(mems, membership.Member{ID: p.ID, Site: p.Site, Addr: p.Addr})
			seeds = append(seeds, p.ID)
		}
		if len(mems) == 0 {
			return fmt.Errorf("%s marks every node spare; at least one initial member is required", mc.peersPath)
		}
		initial := membership.New(mems)
		if spares[self.ID] {
			// Outside the config group: follow the log by polling members,
			// forward proposals through a serving member.
			view = membership.NewView(initial)
			poller := membership.Poll(tr, self.ID, seeds, view, 0)
			defer poller.Stop()
			propose = func(ch membership.Change) (membership.Membership, error) {
				var lastErr error
				for _, seed := range seeds {
					m, perr := membership.ProposeRemote(tr, self.ID, seed, ch, 0)
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
				Local:     []transport.NodeID{self.ID},
				Initial:   initial,
			})
			if lerr != nil {
				tr.Close()
				return lerr
			}
			defer memLog.Stop()
			view = memLog.View()
			propose = func(ch membership.Change) (membership.Membership, error) {
				return memLog.Propose(self.ID, ch)
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
				if mem.ID == self.ID || mem.Addr == "" {
					continue
				}
				if aerr := tr.AddPeer(mem.ID, mem.Site, mem.Addr); aerr != nil {
					log.Printf("membership: AddPeer n%d: %v", mem.ID, aerr)
				}
			}
		})
	}

	c, err := music.NewOverTransport(tr, music.TransportConfig{
		T:             mc.t,
		Shards:        mc.shards,
		LocalNodes:    []transport.NodeID{self.ID},
		Obs:           ob,
		History:       rec,
		Leases:        mc.leases,
		AdaptiveReads: mc.adaptive,
		Monitor:       mon,
		Membership:    view,
		Propose:       propose,
	})
	if err != nil {
		tr.Close()
		return err
	}
	defer c.Close()
	if mon != nil {
		rep := c.Replica(self.Site)
		repairRead = func(key string) {
			rt.Go(func() { _ = rep.RepairRead(key) })
		}
	}

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

	srv := newAPIServer(c, self.Site, mc.shards)
	log.Printf("node %d (site %s): transport on %s, REST on %s, %d peers",
		self.ID, self.Site, tr.Addr(), mc.httpAddr, len(peers)-1)
	return http.ListenAndServe(mc.httpAddr, srv)
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

// peerEntry is one peers.json record: a transport peer plus the optional
// "spare" marker for nodes provisioned outside the initial membership.
type peerEntry struct {
	nettrans.Peer
	Spare bool `json:"spare,omitempty"`
}

func loadPeers(path string) ([]nettrans.Peer, map[transport.NodeID]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []peerEntry
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
