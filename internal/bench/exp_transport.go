package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/music"
)

// runTransport compares the per-operation wall-clock cost of the two
// message planes carrying the same protocol stack: the simulated network
// (zero-RTT profile, so the modeled WAN contributes nothing and only the
// transport machinery remains) versus real TCP connections on loopback.
// Both deployments are built through music.NewOverTransport on a wall-clock
// runtime; each Table I operation is timed separately across fresh keys.
//
// With -json the per-op numbers are also written as BENCH_transport.json so
// successive PRs can track the TCP plane's overhead.
func runTransport(opts Options) []Table {
	iters := 300
	if opts.Quick {
		iters = 60
	}

	opts.logf("  transport: simnet loopback")
	simnetOps := measureTransportOps(newSimnetLoopback(), iters)
	opts.logf("  transport: tcp loopback")
	tcpOps := measureTransportOps(newTCPLoopback(), iters)

	tbl := Table{
		ID:    "transport",
		Title: "Per-op wall-clock cost: simulated message plane vs TCP loopback",
		Columns: []string{"operation",
			"simnet mean", "simnet p99", "tcp mean", "tcp p99", "tcp/simnet"},
		Notes: []string{
			fmt.Sprintf("%d sections per backend, fresh key each, 256 B values; both planes run the identical store/lock/core stack", iters),
			"simnet runs zero RTT with NIC/jitter modeling off, so its column is the calibrated CPU cost model made real by the wall clock; the tcp column is genuine socket+codec machinery",
		},
	}
	var results []transportResult
	for _, op := range transportOps {
		s, c := simnetOps[op], tcpOps[op]
		tbl.Rows = append(tbl.Rows, []string{
			op,
			stats.FormatDuration(s.Mean()),
			stats.FormatDuration(s.Quantile(0.99)),
			stats.FormatDuration(c.Mean()),
			stats.FormatDuration(c.Quantile(0.99)),
			fmtRatio(float64(c.Mean()), float64(s.Mean())),
		})
		results = append(results,
			transportResult{Op: op, Backend: "simnet", MeanMicros: int64(s.Mean() / time.Microsecond), P99Micros: int64(s.Quantile(0.99) / time.Microsecond)},
			transportResult{Op: op, Backend: "tcp", MeanMicros: int64(c.Mean() / time.Microsecond), P99Micros: int64(c.Quantile(0.99) / time.Microsecond)},
		)
	}
	writeTransportJSON(opts, results)
	return []Table{tbl}
}

// transportOps are the Table I operations timed individually.
var transportOps = []string{"createLockRef", "acquireLock", "criticalPut", "criticalGet", "releaseLock"}

// transportBackend is one deployed message plane: a client homed at the
// first site, and a teardown.
type transportBackend struct {
	cl    *music.Client
	close func()
}

// newSimnetLoopback deploys over the simulated network with every inter-site
// RTT forced to zero, on the wall clock.
func newSimnetLoopback() transportBackend {
	sites := []string{"site-a", "site-b", "site-c"}
	p := simnet.NewProfile("loopback", sites...)
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			p.SetRTT(a, b, 0)
		}
	}
	rt := sim.NewReal(1)
	n := simnet.New(rt, simnet.Config{Profile: p, Seed: 1, Bandwidth: -1, JitterFrac: -1})
	c, err := music.NewOverTransport(n, music.TransportConfig{T: time.Minute})
	if err != nil {
		panic(fmt.Sprintf("bench: transport simnet: %v", err))
	}
	return transportBackend{cl: c.Client("site-a"), close: c.Close}
}

// newTCPLoopback deploys three single-node nettrans processes-in-miniature
// on 127.0.0.1 — the multi-process musicd shape inside one benchmark
// process.
func newTCPLoopback() transportBackend {
	sites := []string{"site-a", "site-b", "site-c"}
	rt := sim.NewReal(1)
	listeners := make([]net.Listener, len(sites))
	peers := make([]nettrans.Peer, len(sites))
	for i, site := range sites {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("bench: transport tcp: %v", err))
		}
		listeners[i] = lis
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: lis.Addr().String()}
	}
	clusters := make([]*music.Cluster, len(peers))
	for i, p := range peers {
		tr, err := nettrans.New(rt, nettrans.Config{Self: p.ID, Peers: peers, Listener: listeners[i]})
		if err != nil {
			panic(fmt.Sprintf("bench: transport tcp: %v", err))
		}
		c, err := music.NewOverTransport(tr, music.TransportConfig{
			T:          time.Minute,
			LocalNodes: []transport.NodeID{p.ID},
		})
		if err != nil {
			panic(fmt.Sprintf("bench: transport tcp: %v", err))
		}
		clusters[i] = c
	}
	return transportBackend{
		cl: clusters[0].Client(sites[0]),
		close: func() {
			for _, c := range clusters {
				c.Close()
			}
		},
	}
}

// measureTransportOps times each Table I operation of a full critical
// section, one fresh key per iteration, on an already-deployed backend.
func measureTransportOps(b transportBackend, iters int) map[string]*stats.Histogram {
	defer b.close()
	hists := make(map[string]*stats.Histogram, len(transportOps))
	for _, op := range transportOps {
		hists[op] = stats.NewHistogram()
	}
	timed := func(op string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			panic(fmt.Sprintf("bench: transport %s: %v", op, err))
		}
		hists[op].Observe(time.Since(start))
	}
	value := make([]byte, 256)
	for i := 0; i < iters; i++ {
		key := fmt.Sprintf("tp-%d", i)
		var ref music.LockRef
		timed("createLockRef", func() error {
			var err error
			ref, err = b.cl.CreateLockRef(key)
			return err
		})
		timed("acquireLock", func() error {
			holder, err := b.cl.AcquireLock(key, ref)
			if err == nil && !holder {
				err = fmt.Errorf("fresh lockRef %d not granted %q", ref, key)
			}
			return err
		})
		timed("criticalPut", func() error { return b.cl.CriticalPut(key, ref, value) })
		timed("criticalGet", func() error {
			got, err := b.cl.CriticalGet(key, ref)
			if err == nil && len(got) != len(value) {
				err = fmt.Errorf("criticalGet returned %d bytes, want %d", len(got), len(value))
			}
			return err
		})
		timed("releaseLock", func() error { return b.cl.ReleaseLock(key, ref) })
	}
	return hists
}

// transportResult is one row of the BENCH_transport.json artifact.
type transportResult struct {
	Op         string `json:"op"`
	Backend    string `json:"backend"`
	MeanMicros int64  `json:"mean_us"`
	P99Micros  int64  `json:"p99_us"`
}

func writeTransportJSON(opts Options, results []transportResult) {
	doc := struct {
		Experiment string            `json:"experiment"`
		Quick      bool              `json:"quick"`
		Results    []transportResult `json:"results"`
	}{Experiment: "transport", Quick: opts.Quick, Results: results}
	opts.writeJSON("transport", doc)
}
