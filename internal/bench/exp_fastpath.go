package bench

import (
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/music"
)

// runFastpath measures the critical-section fast path against the
// paper-faithful baseline, one optimization at a time (IUs profile,
// single-threaded client at ohio, fresh key per section):
//
//   - 1-get/1-put sections: the session read served from the grant's
//     piggybacked value must save the Get's full WAN quorum round trip over
//     the Table I CriticalGet;
//   - multi-put sections: Buffered coalesces the writes' quorum round trips
//     into one.
//
// With -json the per-config numbers are also written as BENCH_fastpath.json
// so successive PRs have a machine-readable perf trajectory.
func runFastpath(opts Options) []Table {
	iters, discard := latencyIters(opts)
	var results []fastpathResult

	// Workload A: 1 get + 1 put per section.
	oneGetOnePut := func(cs *music.CriticalSection, get fastpathGet) error {
		if _, err := get(); err != nil {
			return err
		}
		return cs.Put(value(64))
	}
	tblA := Table{
		ID:      "fastpath",
		Title:   "1-get/1-put critical section: Table I ops vs the session's held-value read (IUs)",
		Columns: []string{"Config", "Mean CS latency", "p99", "vs sync"},
		Notes: []string{
			"sync is the paper's Table I ops: the Get is a quorum CriticalGet, the Put a synchronous quorum write",
			"piggyback+cache is the session default: cs.Get is served from the value fetched by the grant-time synchFlag quorum read — one full WAN quorum RTT saved",
		},
	}
	var baseA time.Duration
	for _, cfg := range []fastpathConfig{
		{name: "sync", tableI: true},
		{name: "piggyback+cache"},
		{name: "cache+buffered", clientOpts: []music.ClientOption{music.WithWritePolicy(music.WriteBuffered)}},
	} {
		opts.logf("  fastpath: 1get1put %s", cfg.name)
		m := fastpathMeasure(cfg, iters, discard, "a", oneGetOnePut)
		if baseA == 0 {
			baseA = m.hist.Mean()
		}
		tblA.Rows = append(tblA.Rows, []string{
			cfg.name,
			stats.FormatDuration(m.hist.Mean()),
			stats.FormatDuration(m.hist.Quantile(0.99)),
			fmtRatio(float64(baseA), float64(m.hist.Mean())),
		})
		results = append(results, m.result("1get1put", cfg.name))
	}

	// Workload B: 8 puts per section.
	const batchB = 8
	multiPut := func(cs *music.CriticalSection, _ fastpathGet) error {
		for i := 0; i < batchB; i++ {
			if err := cs.Put(value(256)); err != nil {
				return err
			}
		}
		return nil
	}
	tblB := Table{
		ID:      "fastpath",
		Title:   fmt.Sprintf("%d-put critical section: write-behind coalescing (IUs)", batchB),
		Columns: []string{"Write policy", "Mean CS latency", "p99", "vs sync"},
		Notes: []string{
			"buffered coalesces the section's writes client-side and issues one quorum write at flush",
		},
	}
	var baseB time.Duration
	for _, cfg := range []fastpathConfig{
		{name: "sync"},
		{name: "buffered", clientOpts: []music.ClientOption{music.WithWritePolicy(music.WriteBuffered)}},
	} {
		opts.logf("  fastpath: multiput %s", cfg.name)
		m := fastpathMeasure(cfg, iters, discard, "b", multiPut)
		if baseB == 0 {
			baseB = m.hist.Mean()
		}
		tblB.Rows = append(tblB.Rows, []string{
			cfg.name,
			stats.FormatDuration(m.hist.Mean()),
			stats.FormatDuration(m.hist.Quantile(0.99)),
			fmtRatio(float64(baseB), float64(m.hist.Mean())),
		})
		results = append(results, m.result("multiput8", cfg.name))
	}

	writeFastpathJSON(opts, results)
	return []Table{tblA, tblB}
}

// fastpathConfig names one client configuration under test. tableI
// rows read through the paper's op, cl.CriticalGet (always a quorum read on
// these clusters), instead of the session's cs.Get — the paper-faithful
// baseline the other rows are measured against.
type fastpathConfig struct {
	name       string
	tableI     bool
	clientOpts []music.ClientOption
}

// fastpathGet reads the section's key the way the row's config says.
type fastpathGet func() ([]byte, error)

// fastpathMeasurement is one config's latency histogram and the coordinator
// read bytes accumulated across the measured (post-discard) sections.
type fastpathMeasurement struct {
	hist      *stats.Histogram
	readBytes int64
}

func (m fastpathMeasurement) result(workload, config string) fastpathResult {
	return fastpathResult{
		Workload:       workload,
		Config:         config,
		MeanMicros:     int64(m.hist.Mean() / time.Microsecond),
		P99Micros:      int64(m.hist.Quantile(0.99) / time.Microsecond),
		CoordReadBytes: m.readBytes,
	}
}

// fastpathMeasure runs iters+discard sequential critical sections on fresh
// keys (the single-thread latency methodology) and reports the post-discard
// latency histogram and coordinator read-byte delta.
func fastpathMeasure(cfg fastpathConfig, iters, discard int, prefix string, section func(*music.CriticalSection, fastpathGet) error) fastpathMeasurement {
	c, err := music.New(music.WithSeed(7), music.WithObservability())
	if err != nil {
		panic(fmt.Sprintf("bench: fastpath %s: %v", cfg.name, err))
	}
	m := fastpathMeasurement{hist: stats.NewHistogram()}
	if err := c.Run(func() {
		cl := c.Client("ohio", cfg.clientOpts...)
		var bytesAtWarmup int64
		for i := 0; i < iters+discard; i++ {
			key := fmt.Sprintf("fp-%s-%d", prefix, i)
			if i == discard {
				bytesAtWarmup = counterSum(c, "store_read_bytes_total")
			}
			start := c.Now()
			err := cl.RunCritical(key, func(cs *music.CriticalSection) error {
				get := fastpathGet(cs.Get)
				if cfg.tableI {
					get = func() ([]byte, error) { return cl.CriticalGet(key, cs.Ref()) }
				}
				return section(cs, get)
			})
			if err != nil {
				panic(fmt.Sprintf("bench: fastpath %s: %v", cfg.name, err))
			}
			if i >= discard {
				m.hist.Observe(c.Now() - start)
			}
		}
		m.readBytes = counterSum(c, "store_read_bytes_total") - bytesAtWarmup
	}); err != nil {
		panic(fmt.Sprintf("bench: fastpath %s: %v", cfg.name, err))
	}
	return m
}

// counterSum totals a counter across all label sets.
func counterSum(c *music.Cluster, name string) int64 {
	var total int64
	for _, p := range c.Obs().Metrics().Snapshot() {
		if p.Name == name {
			total += int64(p.Value)
		}
	}
	return total
}

// fastpathResult is one row of the BENCH_fastpath.json perf-trajectory
// artifact.
type fastpathResult struct {
	Workload       string `json:"workload"`
	Config         string `json:"config"`
	MeanMicros     int64  `json:"mean_us"`
	P99Micros      int64  `json:"p99_us"`
	CoordReadBytes int64  `json:"coord_read_bytes"`
}

func writeFastpathJSON(opts Options, results []fastpathResult) {
	doc := struct {
		Experiment string           `json:"experiment"`
		Profile    string           `json:"profile"`
		Quick      bool             `json:"quick"`
		Results    []fastpathResult `json:"results"`
	}{Experiment: "fastpath", Profile: "IUs", Quick: opts.Quick, Results: results}
	opts.writeJSON("fastpath", doc)
}
