package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/history"
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
	leases   bool
	adaptive bool
	mutation core.Mutation
}{
	// Baseline: every critical get is a quorum read (one inter-site RTT).
	{"quorum", false, false, core.MutationNone},
	// Holder leases: the granting site serves the section's gets locally
	// for the lease window, under the full critical-check guard.
	{"lease", true, false, core.MutationNone},
	// Adaptive reads on a clean history: the monitor never sees a
	// violation, so every get stays at ONE (the local replica).
	{"adaptive", false, true, core.MutationNone},
	// Adaptive reads against deterministic injected staleness: the monitor
	// must trip and flip the sites back to QUORUM, after which no further
	// violation may appear.
	{"adaptive_stale", false, true, core.MutationStaleReads},
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
func measureReadpath(cfgName string, leases, adaptive bool, mutation core.Mutation, opts Options) readpathResult {
	rt := sim.New(11)
	tc := music.TransportConfig{Leases: leases, AdaptiveReads: adaptive}
	if adaptive {
		tc.History = history.New(rt)
	}
	c, err := music.NewOverTransport(simnet.New(rt, simnet.Config{Profile: readpathFabric()}), tc)
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
	const opsPerSection = 8 // 8 ops/section; every 20th op overall is a put
	gens := generators(workersPerSite*len(sites), ycsb.Config{Workload: ycsb.WorkloadR, Records: 400}, 7000)

	var out readpathResult
	mustRun(c, func() {
		lat := stats.NewHistogram()
		reads := 0
		makespan := drain(c.Virtual(), len(gens), totalSections, func(wi int) func() {
			cl := c.Client(sites[wi%len(sites)])
			opCtr := wi // offset so the 5% puts spread across workers
			return func() {
				key := gens[wi].Next().Key
				ref, err := cl.CreateLockRef(key)
				if err != nil {
					c.Sleep(time.Duration(5+c.Virtual().Rand().Intn(20)) * time.Millisecond)
					return
				}
				if err := cl.AwaitLock(key, ref, 30*time.Second); err != nil {
					_ = cl.RemoveLockRef(key, ref)
					return
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
		out = readpathResult{
			Config:        cfgName,
			P50GetMicros:  lat.Quantile(0.5).Microseconds(),
			MeanGetMicros: lat.Mean().Microseconds(),
			ReadsPerSec:   float64(reads) / makespan.Seconds(),
		}
	})
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
		r := measureReadpath(cfg.name, cfg.leases, cfg.adaptive, cfg.mutation, opts)
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
	opts.writeJSON("readpath", "", results)
	return []Table{t}
}
