package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// runTable2 prints the latency-profile matrix (Table II).
func runTable2(opts Options) []Table {
	t := Table{
		ID:      "table2",
		Title:   "Latency profiles used for 3-site deployments",
		Columns: []string{"Profile", "Site 1", "Site 2", "Site 3", "RTT 1-2", "RTT 1-3", "RTT 2-3"},
	}
	for _, p := range simnet.Profiles() {
		s := p.Sites()
		t.Rows = append(t.Rows, []string{
			p.Name(), s[0], s[1], s[2],
			stats.FormatDuration(p.RTT(s[0], s[1])),
			stats.FormatDuration(p.RTT(s[0], s[2])),
			stats.FormatDuration(p.RTT(s[1], s[2])),
		})
	}
	return []Table{t}
}

// throughputDurations returns (warmup, window) per mode.
func throughputDurations(opts Options) (time.Duration, time.Duration) {
	if opts.Quick {
		return 500 * time.Millisecond, 1500 * time.Millisecond
	}
	return time.Second, 5 * time.Second
}

// measureMUSICThroughput measures critical sections per second for the
// given mode, with one CS = lockRef + acquire + batch puts + release.
func measureMUSICThroughput(profile *simnet.Profile, nodesPerSite int, mode core.Mode, workersPerNode, batch, valSize int, opts Options) tpResult {
	w := buildMUSIC(profile, nodesPerSite, mode, 42)
	val := value(valSize)
	warm, window := throughputDurations(opts)
	var res tpResult
	mustRun(w.rt, func() {
		workers := workersPerNode * len(w.reps)
		res = measureThroughput(w.rt, workers, warm, window, func(worker, iter int) error {
			rep := w.replicaFor(worker)
			key := fmt.Sprintf("key-%04d", worker)
			return runCS(w.rt, rep, key, batch, val)
		})
	})
	return res
}

// measureCassaEVThroughput measures plain eventual writes per second — the
// performance upper bound (§VIII-b).
func measureCassaEVThroughput(profile *simnet.Profile, opts Options) tpResult {
	w := buildMUSIC(profile, 1, core.ModeQuorum, 42)
	val := value(10)
	warm, window := throughputDurations(opts)
	var res tpResult
	mustRun(w.rt, func() {
		workers := opts.workers() * len(w.reps)
		res = measureThroughput(w.rt, workers, warm, window, func(worker, iter int) error {
			rep := w.replicaFor(worker)
			return rep.Put(fmt.Sprintf("key-%04d", worker), val)
		})
	})
	return res
}

// runFig4a reproduces Fig 4(a): CassaEV / MUSIC / MSCP peak throughput
// across the three latency profiles.
func runFig4a(opts Options) []Table {
	t := Table{
		ID:      "fig4a",
		Title:   "Peak write throughput (op/s) by latency profile",
		Columns: []string{"Profile", "CassaEV", "MUSIC", "MSCP", "MUSIC/MSCP"},
		Notes: []string{
			"paper: CassaEV ≈41K; MUSIC ≈885 (IUs); MUSIC ≈1.3x MSCP across profiles",
		},
	}
	for _, p := range simnet.Profiles() {
		opts.logf("  fig4a: profile %s", p.Name())
		ev := measureCassaEVThroughput(p, opts)
		music := measureMUSICThroughput(p, 1, core.ModeQuorum, opts.workers(), 1, 10, opts)
		mscp := measureMUSICThroughput(p, 1, core.ModeLWT, opts.workers(), 1, 10, opts)
		t.Rows = append(t.Rows, []string{
			p.Name(), fmtTP(ev.PerSec), fmtTP(music.PerSec), fmtTP(mscp.PerSec),
			fmtRatio(music.PerSec, mscp.PerSec),
		})
	}
	return []Table{t}
}

// runFig4b reproduces Fig 4(b): throughput vs cluster size on IUs, RF 3,
// keys sharded across all nodes.
func runFig4b(opts Options) []Table {
	t := Table{
		ID:      "fig4b",
		Title:   "Peak throughput (op/s) vs cluster size, IUs, fully sharded",
		Columns: []string{"Nodes", "MUSIC", "MSCP", "MUSIC/MSCP"},
		Notes: []string{
			"paper: both scale with nodes; MUSIC outperforms MSCP by ~30-36%",
		},
	}
	sizes := []int{1, 2, 3} // nodes per site → 3, 6, 9 total
	if opts.Quick {
		sizes = []int{1, 3}
	}
	for _, nps := range sizes {
		opts.logf("  fig4b: %d nodes", nps*3)
		music := measureMUSICThroughput(simnet.ProfileIUs, nps, core.ModeQuorum, opts.workers(), 1, 10, opts)
		mscp := measureMUSICThroughput(simnet.ProfileIUs, nps, core.ModeLWT, opts.workers(), 1, 10, opts)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nps*3), fmtTP(music.PerSec), fmtTP(mscp.PerSec),
			fmtRatio(music.PerSec, mscp.PerSec),
		})
	}
	return []Table{t}
}

// latencyIters returns (measured, discarded) iteration counts.
func latencyIters(opts Options) (int, int) {
	if opts.Quick {
		return 10, 2
	}
	return 40, 5
}

// runFig5a reproduces Fig 5(a): single-thread mean latency per profile.
func runFig5a(opts Options) []Table {
	t := Table{
		ID:      "fig5a",
		Title:   "Mean operation latency by profile (single thread)",
		Columns: []string{"Profile", "CassaEV", "MUSIC", "MSCP", "MSCP/MUSIC"},
		Notes: []string{
			"paper: MUSIC ≈30% below MSCP on cross-region profiles (IUs, IUsEu)",
		},
	}
	iters, discard := latencyIters(opts)
	for _, p := range simnet.Profiles() {
		opts.logf("  fig5a: profile %s", p.Name())
		var evMean, musicMean, mscpMean time.Duration
		{
			w := buildMUSIC(p, 1, core.ModeQuorum, 7)
			val := value(10)
			mustRun(w.rt, func() {
				ev := measureLatency(w.rt, iters, discard, func(i int) error {
					return w.reps[0].Put("k", val)
				})
				evMean = ev.Hist.Mean()
				music := measureLatency(w.rt, iters, discard, func(i int) error {
					return runCS(w.rt, w.reps[0], fmt.Sprintf("mk-%d", i), 1, val)
				})
				musicMean = music.Hist.Mean()
			})
		}
		{
			w := buildMUSIC(p, 1, core.ModeLWT, 7)
			val := value(10)
			mustRun(w.rt, func() {
				mscp := measureLatency(w.rt, iters, discard, func(i int) error {
					return runCS(w.rt, w.reps[0], fmt.Sprintf("sk-%d", i), 1, val)
				})
				mscpMean = mscp.Hist.Mean()
			})
		}
		t.Rows = append(t.Rows, []string{
			p.Name(),
			stats.FormatDuration(evMean),
			stats.FormatDuration(musicMean),
			stats.FormatDuration(mscpMean),
			fmt.Sprintf("%.2fx", float64(mscpMean)/float64(musicMean)),
		})
	}
	return []Table{t}
}

// spanMean pulls one span name's mean duration off the tracer aggregates.
func spanMean(ns []obs.NameStat, name string) time.Duration {
	for _, s := range ns {
		if s.Name == name {
			return s.Mean
		}
	}
	return 0
}

// runFig5b reproduces Fig 5(b): the per-operation latency breakdown of a
// MUSIC critical section on IUs, with the MSCP LWT put alongside. The
// breakdown is derived from the causal tracer's per-span aggregates — the
// same spans `-exp trace` renders.
func runFig5b(opts Options) []Table {
	iters, discard := latencyIters(opts)

	wm := buildMUSICTraced(simnet.ProfileIUs, 1, core.ModeQuorum, 7)
	mustRun(wm.rt, func() {
		measureLatency(wm.rt, iters, discard, func(i int) error {
			return runCS(wm.rt, wm.reps[0], fmt.Sprintf("k-%d", i), 1, value(10))
		})
	})
	musicStats := wm.obs.Tracer().StatsByName()

	ws := buildMUSICTraced(simnet.ProfileIUs, 1, core.ModeLWT, 7)
	mustRun(ws.rt, func() {
		measureLatency(ws.rt, iters, discard, func(i int) error {
			return runCS(ws.rt, ws.reps[0], fmt.Sprintf("k-%d", i), 1, value(10))
		})
	})
	mscpStats := ws.obs.Tracer().StatsByName()

	t := Table{
		ID:      "fig5b",
		Title:   "MUSIC operation latency breakdown, IUs (L=local, Q=quorum, P=Paxos/LWT)",
		Columns: []string{"Operation", "Kind", "Mean latency"},
		Notes: []string{
			"paper: create/release ≈219-230ms (4 RTTs); peek ≈0.67ms; grant ≈55ms; put(Q) ≈93ms; put(P) ≈270ms",
			"means are aggregated over the causal spans recorded by internal/obs",
		},
	}
	rows := []struct {
		name string
		kind string
		d    time.Duration
	}{
		{"createLockRef", "P", spanMean(musicStats, "music.createLockRef")},
		{"acquireLock peek", "L", spanMean(musicStats, "music.acquireLock.peek")},
		{"acquireLock grant", "Q", spanMean(musicStats, "music.acquireLock.grant")},
		{"criticalPut (MUSIC)", "Q", spanMean(musicStats, "music.criticalPut")},
		{"criticalPut (MSCP)", "P", spanMean(mscpStats, "music.criticalPut")},
		{"releaseLock", "P", spanMean(musicStats, "music.releaseLock")},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, r.kind, stats.FormatDuration(r.d)})
	}
	return []Table{t}
}

// runTrace renders the causal span tree of one complete MUSIC critical
// section per latency profile — the observability subsystem end to end.
// Each line is one span: indented name, duration, offset from the trace
// start, and any annotations.
func runTrace(opts Options) []Table {
	var out []Table
	for _, p := range simnet.Profiles() {
		opts.logf("  trace: profile %s", p.Name())
		w := buildMUSICTraced(p, 1, core.ModeQuorum, 7)
		var id obs.TraceID
		mustRun(w.rt, func() {
			// Warm the lock row so the traced section shows the
			// steady-state paths, not first-touch misses.
			if err := runCS(w.rt, w.reps[0], "traced", 1, value(10)); err != nil {
				panic(fmt.Sprintf("bench: trace warmup: %v", err))
			}
			root := w.obs.Tracer().StartRoot("criticalSection")
			err := runCS(w.rt, w.reps[0], "traced", 1, value(10))
			root.EndErr(err)
			id = root.Trace
			// Let the legs the section left in flight land, so that each
			// one's rpc span closes when its reply arrives.
			w.rt.Sleep(time.Second)
		})
		var buf strings.Builder
		w.obs.Tracer().WriteTree(&buf, id)
		t := Table{
			ID:      "trace-" + p.Name(),
			Title:   "Causal span tree of one critical section, profile " + p.Name(),
			Columns: []string{"span (duration, +offset from trace start, annotations)"},
		}
		for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
			t.Rows = append(t.Rows, []string{line})
		}
		out = append(out, t)
	}
	return out
}
