package bench

import (
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/music"
)

// runFaults measures the client-layer failure semantics (§III-A: "the
// client should retry, possibly at another MUSIC replica") under seeded
// fault injection, and the healthy-path cost of carrying that machinery.
//
// Campaign: a failover client at ohio drives back-to-back critical
// sections while the schedule partitions ohio away from the majority
// mid-campaign and heals it a fixed window later. Every section must
// complete — the mid-partition ones by retrying and failing over to
// ncalifornia — and the client's recovery latency (wall time the first
// partition-straddling section lost to retries plus re-acquisition at the
// failover site) is reported per seed, alongside the music_retry_total /
// music_failover_total counters the run produced.
//
// Overhead: the same sequential section loop on a healthy cluster, run
// with retries+failover enabled vs. NoRetry. The retry layer sits on the
// hot path of every operation, so the two must agree to within noise —
// this is the number EXPERIMENTS.md cites for "failure handling is free
// until a failure happens".
func runFaults(opts Options) []Table {
	seeds := []int64{1, 2, 3, 4, 5}
	sections := 12
	if opts.Quick {
		seeds = seeds[:2]
		sections = 6
	}

	campaign := Table{
		ID:      "faults",
		Title:   "Fault campaign: sections across a mid-campaign site partition (IUs, ohio cut off 15s)",
		Columns: []string{"Seed", "Sections", "Completed", "Retries", "Failovers", "Final site", "Recovery latency"},
		Notes: []string{
			"recovery latency = duration of the section that straddles the partition, dominated by the per-site attempt budget waiting out store timeouts at the cut-off site before the failover fires",
			"counters are the run's music_retry_total / music_failover_total sums across ops and sites",
		},
	}

	for _, seed := range seeds {
		opts.logf("  faults: campaign seed %d", seed)
		c, err := music.New(music.WithSeed(seed), music.WithObservability())
		if err != nil {
			panic(fmt.Sprintf("bench: faults: %v", err))
		}
		completed := 0
		var recovery time.Duration
		finalSite := ""
		partitionAt := sections / 3
		mustRun(c, func() {
			cl := c.FailoverClient("ohio")
			defer func() { finalSite = cl.Site() }()
			for i := 0; i < sections; i++ {
				if i == partitionAt {
					c.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
					c.Go(func() {
						c.Sleep(15 * time.Second)
						c.Heal()
					})
				}
				start := c.Now()
				err := cl.RunCritical("campaign", func(cs *music.CriticalSection) error {
					return cs.Put([]byte(fmt.Sprintf("s%d", i)))
				})
				if err == nil {
					completed++
				}
				if i == partitionAt {
					recovery = c.Now() - start
				}
			}
		})

		retries, failovers := int64(0), int64(0)
		for _, p := range c.Obs().Metrics().Snapshot() {
			switch p.Name {
			case "music_retry_total":
				retries += int64(p.Value)
			case "music_failover_total":
				failovers += int64(p.Value)
			}
		}
		campaign.Rows = append(campaign.Rows, []string{
			fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d", sections),
			fmt.Sprintf("%d", completed),
			fmt.Sprintf("%d", retries),
			fmt.Sprintf("%d", failovers),
			finalSite,
			stats.FormatDuration(recovery),
		})
	}

	overhead := Table{
		ID:      "faults",
		Title:   "Healthy-path overhead of the retry/failover layer (IUs, sequential sections)",
		Columns: []string{"Client", "Mean CS latency", "vs NoRetry"},
		Notes: []string{
			"same seed and schedule; the retry layer adds no quorum round trips when operations succeed",
		},
	}
	iters, discard := latencyIters(opts)
	var base time.Duration
	for _, v := range []struct {
		name  string
		build func(c *music.Cluster) *music.Client
	}{
		{"NoRetry (pre-fix behavior)", func(c *music.Cluster) *music.Client {
			return c.Client("ohio", music.WithRetry(music.NoRetry))
		}},
		{"DefaultRetryPolicy", func(c *music.Cluster) *music.Client {
			return c.Client("ohio")
		}},
		{"FailoverClient", func(c *music.Cluster) *music.Client {
			return c.FailoverClient("ohio")
		}},
	} {
		opts.logf("  faults: overhead %s", v.name)
		c, err := music.New(music.WithSeed(31))
		if err != nil {
			panic(fmt.Sprintf("bench: faults overhead: %v", err))
		}
		var mean time.Duration
		mustRun(c, func() {
			cl := v.build(c)
			res := measureLatency(c.Virtual(), iters, discard, func(i int) error {
				return cl.RunCritical(fmt.Sprintf("oh-%d", i), func(cs *music.CriticalSection) error {
					return cs.Put(value(10))
				})
			})
			if res.Errors > 0 {
				panic(fmt.Sprintf("bench: faults overhead %s: %d errors", v.name, res.Errors))
			}
			mean = res.Hist.Mean()
		})
		rel := "1.00x"
		if base == 0 {
			base = mean
		} else if base > 0 {
			rel = fmt.Sprintf("%.2fx", float64(mean)/float64(base))
		}
		overhead.Rows = append(overhead.Rows, []string{v.name, stats.FormatDuration(mean), rel})
	}

	return []Table{campaign, overhead}
}
