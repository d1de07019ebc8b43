package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/ycsb"
	"repro/music"
)

// readpathFabric is the experiment's latency profile: three sites spread
// across a metro area (~1.2ms inter-site RTT). Wider than the scale
// campaign's 500µs fabric on purpose — at 500µs the modeled per-read CPU
// costs rival the network round, and the quorum-vs-local contrast under
// test would be dominated by a constant both planes pay (the local lock-row
// peek every critical get runs).
func readpathFabric() *simnet.Profile {
	sites := []string{"metro-a", "metro-b", "metro-c"}
	p := simnet.NewProfile("metro", sites...)
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			p.SetRTT(a, b, 1200*time.Microsecond)
		}
	}
	return p
}

// readpathConfigs are the four read planes under comparison, over the same
// metro fabric and workload. The string name is the row's identity in
// BENCH_readpath.json.
var readpathConfigs = []struct {
	name     string
	opts     []music.Option
	mutation core.Mutation
}{
	// Baseline: every critical get is a quorum read (one inter-site RTT).
	{"quorum", nil, core.MutationNone},
	// Holder leases: the granting site serves the section's gets locally
	// for the lease window, under the full critical-check guard.
	{"lease", []music.Option{music.WithHolderLeases()}, core.MutationNone},
	// Adaptive reads on a clean history: the monitor never sees a
	// violation, so every get stays at ONE (the local replica).
	{"adaptive", []music.Option{music.WithAdaptiveReads()}, core.MutationNone},
	// Adaptive reads against deterministic injected staleness: the monitor
	// must trip and flip the sites back to QUORUM, after which no further
	// violation may appear.
	{"adaptive_stale", []music.Option{music.WithAdaptiveReads()}, core.MutationStaleReads},
}

// readpathResult is one row of the BENCH_readpath.json artifact. The *_us
// and *_per_sec fields are the headline metrics; the monitor columns are
// asserted by the package test. CI compares the whole file byte for byte.
type readpathResult struct {
	Config        string  `json:"config"`
	P50GetMicros  int64   `json:"p50_get_us"`
	MeanGetMicros int64   `json:"mean_get_us"`
	ReadsPerSec   float64 `json:"reads_per_sec"`
	Violations    int     `json:"violations"`
	PostFlip      int     `json:"post_flip_violations"`
	Flipped       bool    `json:"flipped"`
}

// measureReadpath drives one config: a closed loop of workers per site, each
// section locking a Zipfian-drawn key and issuing a 95/5 get/put mix inside
// it. Only the critical gets are timed — the lock plane is identical across
// configs, and the experiment is about what a get costs once the section
// holds the key.
func measureReadpath(cfgName string, clusterOpts []music.Option, mutation core.Mutation, opts Options) readpathResult {
	c, err := music.New(append([]music.Option{
		music.WithSimnetProfile(readpathFabric()),
		music.WithSeed(11),
	}, clusterOpts...)...)
	if err != nil {
		panic(fmt.Sprintf("bench: readpath %s: %v", cfgName, err))
	}
	for _, site := range c.Sites() {
		c.Replica(site).SetMutation(mutation)
	}
	sites := c.Sites()
	workersPerSite, totalSections := 4, 1800
	if opts.Quick {
		workersPerSite, totalSections = 2, 300
	}
	workers := workersPerSite * len(sites)
	const opsPerSection = 8 // 8 ops/section; every 20th op overall is a put

	gens := make([]*ycsb.Generator, workers)
	for i := range gens {
		g, err := ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadR,
			Records:  400,
		}, int64(7000+i))
		if err != nil {
			panic(fmt.Sprintf("bench: readpath ycsb: %v", err))
		}
		gens[i] = g
	}

	var out readpathResult
	if err := c.Run(func() {
		lat := stats.NewHistogram()
		issued, reads := 0, 0
		done := sim.NewMailbox[struct{}](c.Virtual())
		start := c.Now()
		for wi := 0; wi < workers; wi++ {
			wi := wi
			cl := c.Client(sites[wi%len(sites)])
			c.Go(func() {
				defer done.Send(struct{}{})
				opCtr := wi // offset so the 5% puts spread across workers
				for {
					if issued >= totalSections {
						return
					}
					issued++
					key := gens[wi].Next().Key
					ref, err := cl.CreateLockRef(key)
					if err != nil {
						c.Sleep(time.Duration(5+c.Virtual().Rand().Intn(20)) * time.Millisecond)
						continue
					}
					if err := cl.AwaitLock(key, ref, 30*time.Second); err != nil {
						_ = cl.RemoveLockRef(key, ref)
						continue
					}
					for j := 0; j < opsPerSection; j++ {
						opCtr++
						if opCtr%20 == 0 {
							_ = cl.CriticalPut(key, ref, []byte(fmt.Sprintf("w%d-%d", wi, opCtr)))
							continue
						}
						gStart := c.Now()
						if _, err := cl.CriticalGet(key, ref); err == nil {
							lat.Observe(c.Now() - gStart)
							reads++
						}
					}
					_ = cl.ReleaseLock(key, ref)
				}
			})
		}
		for wi := 0; wi < workers; wi++ {
			if _, err := done.RecvTimeout(time.Hour); err != nil {
				panic("bench: readpath workers stuck")
			}
		}
		makespan := c.Now() - start
		out = readpathResult{
			Config:        cfgName,
			P50GetMicros:  lat.Quantile(0.5).Microseconds(),
			MeanGetMicros: lat.Mean().Microseconds(),
			ReadsPerSec:   float64(reads) / makespan.Seconds(),
		}
	}); err != nil {
		panic(fmt.Sprintf("bench: readpath %s: %v", cfgName, err))
	}
	if mon := c.Monitor(); mon != nil {
		for _, site := range sites {
			out.Violations += mon.Violations(site)
			out.PostFlip += mon.PostFlipViolations(site)
			if mon.Flipped(site) {
				out.Flipped = true
			}
		}
	}
	return out
}

// runReadpath reproduces the adaptive-consistency read-path comparison:
// the same Zipfian 95/5 workload over the metro fabric under each read
// plane, reporting per-get latency, read throughput, and what the live
// consistency monitor saw.
func runReadpath(opts Options) []Table {
	t := Table{
		ID:      "readpath",
		Title:   "Read path: quorum vs holder leases vs adaptive ONE reads (metro fabric, Zipfian 95/5)",
		Columns: []string{"Config", "p50 get", "mean get", "reads/s", "violations", "post-flip", "flipped"},
		Notes: []string{
			"gets timed inside held sections only; the lock plane is identical across configs",
			"acceptance: lease p50 ≥3x below quorum p50; adaptive_stale must flip with post-flip violations = 0",
		},
	}
	var results []readpathResult
	for _, cfg := range readpathConfigs {
		opts.logf("  readpath: %s", cfg.name)
		r := measureReadpath(cfg.name, cfg.opts, cfg.mutation, opts)
		results = append(results, r)
		t.Rows = append(t.Rows, []string{
			r.Config,
			stats.FormatDuration(time.Duration(r.P50GetMicros) * time.Microsecond),
			stats.FormatDuration(time.Duration(r.MeanGetMicros) * time.Microsecond),
			fmtTP(r.ReadsPerSec),
			fmt.Sprintf("%d", r.Violations),
			fmt.Sprintf("%d", r.PostFlip),
			fmt.Sprintf("%v", r.Flipped),
		})
	}
	writeReadpathJSON(opts, results)
	return []Table{t}
}

func writeReadpathJSON(opts Options, results []readpathResult) {
	doc := struct {
		Experiment string           `json:"experiment"`
		Quick      bool             `json:"quick"`
		Results    []readpathResult `json:"results"`
	}{Experiment: "readpath", Quick: opts.Quick, Results: results}
	opts.writeJSON("readpath", doc)
}
