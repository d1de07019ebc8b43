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

// scaleShardCounts is the sweep the tentpole's acceptance criterion reads:
// ops/s must rise monotonically from 1 to 4 shards (≥1.5x at 4).
var scaleShardCounts = []int{1, 2, 4, 8}

// scaleFabric is the scale campaign's latency profile: three sites on a
// fast metro fabric (~500µs inter-site RTT). The point of the experiment is
// CPU capacity, not WAN waits — on the paper's IUs profile the 30ms+
// RTTs dominate every critical section and per-site CPU never saturates, so
// shard count would be invisible.
func scaleFabric() *simnet.Profile {
	sites := []string{"metro-a", "metro-b", "metro-c"}
	p := simnet.NewProfile("fabric", sites...)
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			p.SetRTT(a, b, 500*time.Microsecond)
		}
	}
	return p
}

// scaleWorld is one sharded deployment: per site, one store node per shard
// and a site replica whose plane shard i coordinates through node i.
type scaleWorld struct {
	rt   *sim.Virtual
	reps []*core.Replica // one per site, site-indexed
}

// buildScaleWorld constructs a 3-site deployment with the given per-site
// shard count. NodesPerSite == shards so every plane shard owns a store
// node (and hence a modeled CPU) of its own.
func buildScaleWorld(shards int, seed int64) *scaleWorld {
	rt := sim.New(seed)
	net := simnet.New(rt, simnet.Config{Profile: scaleFabric(), NodesPerSite: shards})
	c, err := music.NewOverTransport(net, music.TransportConfig{T: 10 * time.Minute, Shards: shards})
	if err != nil {
		panic(fmt.Sprintf("bench: scale world: %v", err))
	}
	w := &scaleWorld{rt: rt}
	for _, site := range c.Sites() {
		w.reps = append(w.reps, c.Replica(site))
	}
	return w
}

// scaleResult is one row of the BENCH_scale.json artifact, which CI
// compares byte for byte. Shards is a string, the row's identity, as in
// the committed file.
type scaleResult struct {
	Shards     string  `json:"shards"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	MeanMicros int64   `json:"mean_us"`
	P99Micros  int64   `json:"p99_us"`
}

// measureScale drives the YCSB campaign against one shard count: a fixed
// operation count drained by a closed loop of workers per site, every op a
// full MUSIC critical section over a key drawn uniformly from a
// million-plus keyspace. Uniform (not Zipfian) is deliberate: the tentpole
// measures scale-out of per-site capacity, and a closed-loop Zipfian(0.99)
// draw would convoy every worker onto the hottest lock's FIFO queue,
// capping throughput at the hot key's service rate no matter how many
// shards exist. Contention behaviour is fig9's experiment.
func measureScale(shards int, opts Options) scaleResult {
	w := buildScaleWorld(shards, 99)
	records := 1_250_000
	workersPerSite, totalCount := 200, 40_000
	if opts.Quick {
		workersPerSite, totalCount = 60, 4_000
	}
	gens := generators(workersPerSite*len(w.reps), ycsb.Config{
		Workload:     ycsb.WorkloadUR,
		Records:      records,
		Distribution: ycsb.DistUniform,
	}, 5000)

	var out scaleResult
	mustRun(w.rt, func() {
		l := drainYCSB(w.rt, w.reps, gens, totalCount)
		out = scaleResult{
			Shards:     fmt.Sprintf("%d", shards),
			OpsPerSec:  float64(l.completed) / l.makespan.Seconds(),
			MeanMicros: l.lat.Mean().Microseconds(),
			P99Micros:  l.lat.Quantile(0.99).Microseconds(),
		}
	})
	return out
}

// runScale reproduces the scale-out campaign: the same YCSB workload at
// shard counts 1/2/4/8, reporting throughput and tail latency per count.
func runScale(opts Options) []Table {
	counts := scaleShardCounts
	if opts.Quick {
		counts = []int{1, 4}
	}
	t := Table{
		ID:      "scale",
		Title:   "Sharded lock/data plane: YCSB UR over 1.25M uniform keys, fabric profile",
		Columns: []string{"Shards/site", "ops/s", "mean", "p99", "vs 1 shard"},
		Notes: []string{
			"closed loop, fixed op count drained across 3 sites; every op is a full critical section",
			"acceptance: ops/s monotone 1→4 shards, ≥1.5x at 4",
		},
	}
	var results []scaleResult
	var base float64
	for _, shards := range counts {
		opts.logf("  scale: %d shard(s) per site", shards)
		r := measureScale(shards, opts)
		results = append(results, r)
		if base == 0 {
			base = r.OpsPerSec
		}
		t.Rows = append(t.Rows, []string{
			r.Shards,
			fmtTP(r.OpsPerSec),
			stats.FormatDuration(time.Duration(r.MeanMicros) * time.Microsecond),
			stats.FormatDuration(time.Duration(r.P99Micros) * time.Microsecond),
			fmt.Sprintf("%.2fx", r.OpsPerSec/base),
		})
	}
	opts.writeJSON("scale", "", results)
	return []Table{t}
}
