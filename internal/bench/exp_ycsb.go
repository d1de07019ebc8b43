package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// ycsbResult is one (system, workload) measurement.
type ycsbResult struct {
	tp         float64
	meanLat    time.Duration
	collisions float64 // fraction of ops that contended for a lock
}

// measureYCSB drives the Fig 9 setup, matching the paper's methodology: a
// fixed operation count (YCSB's operationcount) is drained by threads
// across all sites, each op converted into a MUSIC critical section over a
// Zipfian-chosen key, so threads genuinely collide on hot locks (the paper
// measured ~5.5% collisions). Throughput is ops/makespan; latency includes
// lock-queue waits.
func measureYCSB(mode core.Mode, workload string, opts Options) ycsbResult {
	w := buildMUSIC(simnet.ProfileIUs, 1, mode, 99)
	// Concurrency is sized for the paper's contention regime (~5.5% lock
	// collisions over the Zipfian-hot keyspace); more threads would convoy
	// on the hottest locks and measure queueing instead of the store.
	workersPerSite, records, totalCount := 1, 1000, 2000
	if opts.Quick {
		totalCount = 300
	}
	gens := generators(workersPerSite*len(w.reps), ycsb.Config{Workload: workload, Records: records}, 1000)

	var out ycsbResult
	mustRun(w.rt, func() {
		l := drainYCSB(w.rt, w.reps, gens, totalCount)
		out.tp = float64(l.completed) / l.makespan.Seconds()
		out.meanLat = l.lat.Mean()
		if l.completed > 0 {
			out.collisions = float64(l.collisions) / float64(l.completed)
		}
	})
	return out
}

// generators builds n YCSB generators over cfg, generator i seeded seed+i.
func generators(n int, cfg ycsb.Config, seed int64) []*ycsb.Generator {
	gens := make([]*ycsb.Generator, n)
	for i := range gens {
		g, err := ycsb.NewGenerator(cfg, seed+int64(i))
		if err != nil {
			panic(fmt.Sprintf("bench: ycsb: %v", err))
		}
		gens[i] = g
	}
	return gens
}

// ycsbLoad is what draining a YCSB operation count measured.
type ycsbLoad struct {
	lat                   *stats.Histogram // completed ops only
	completed, collisions int
	makespan              time.Duration
}

// drainYCSB drains total ops over one closed-loop worker per generator:
// worker w draws its ops from gens[w] and runs each as a MUSIC critical
// section at reps[w%len(reps)]. A failed op (hot-lock contention) backs off
// 100-499ms before the worker's next, as the paper's clients do (§III-A).
func drainYCSB(rt *sim.Virtual, reps []*core.Replica, gens []*ycsb.Generator, total int) ycsbLoad {
	l := ycsbLoad{lat: stats.NewHistogram()}
	l.makespan = drain(rt, len(gens), total, func(w int) func() {
		rep := reps[w%len(reps)]
		return func() {
			op := gens[w].Next()
			start := rt.Now()
			collided, err := runYCSBOp(rt, rep, op)
			if err != nil {
				rt.Sleep(time.Duration(100+rt.Rand().Intn(400)) * time.Millisecond)
				return
			}
			l.completed++
			if collided {
				l.collisions++
			}
			l.lat.Observe(rt.Now() - start)
		}
	})
	return l
}

// runYCSBOp executes one YCSB op as a MUSIC critical section, polling for
// the lock every 5ms, and reports whether it contended for the lock.
func runYCSBOp(rt *sim.Virtual, rep *core.Replica, op ycsb.Op) (collided bool, err error) {
	ref, collided, err := lock(rt, rep, op.Key, 5*time.Millisecond)
	if err != nil {
		return collided, err
	}
	if op.Kind == ycsb.Update {
		err = rep.CriticalPut(op.Key, ref, op.Value)
	} else {
		_, err = rep.CriticalGet(op.Key, ref)
	}
	if err != nil {
		return collided, err
	}
	return collided, rep.ReleaseLock(op.Key, ref)
}

// runFig9 reproduces Fig 9 (appendix §X-B2): YCSB R / UR / U workloads,
// MUSIC vs MSCP, throughput and latency, with lock collisions allowed.
func runFig9(opts Options) []Table {
	t := Table{
		ID:      "fig9",
		Title:   "YCSB workloads on IUs (Zipfian keys, collisions allowed)",
		Columns: []string{"Workload", "MUSIC op/s", "MSCP op/s", "MUSIC lat", "MSCP lat", "Collisions", "MUSIC/MSCP"},
		Notes: []string{
			"paper: MUSIC ahead of MSCP by ~6-20% throughput and 0-20% latency; ~5.5% lock collisions",
		},
	}
	for _, wl := range []string{ycsb.WorkloadR, ycsb.WorkloadUR, ycsb.WorkloadU} {
		opts.logf("  fig9: workload %s", wl)
		music := measureYCSB(core.ModeQuorum, wl, opts)
		mscp := measureYCSB(core.ModeLWT, wl, opts)
		t.Rows = append(t.Rows, []string{
			wl,
			fmtTP(music.tp), fmtTP(mscp.tp),
			stats.FormatDuration(music.meanLat), stats.FormatDuration(mscp.meanLat),
			fmt.Sprintf("%.1f%%", music.collisions*100),
			fmtRatio(music.tp, mscp.tp),
		})
	}
	return []Table{t}
}
