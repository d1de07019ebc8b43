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
	workers := workersPerSite * len(w.reps)

	gens := make([]*ycsb.Generator, workers)
	for i := range gens {
		g, err := ycsb.NewGenerator(ycsb.Config{Workload: workload, Records: records}, int64(1000+i))
		if err != nil {
			panic(fmt.Sprintf("bench: ycsb: %v", err))
		}
		gens[i] = g
	}

	var (
		out        ycsbResult
		collisions int64
		completed  int64
	)
	mustRun(w, func() {
		lat := stats.NewHistogram()
		issued := 0
		done := sim.NewMailbox[struct{}](w.rt)
		start := w.rt.Now()
		for wi := 0; wi < workers; wi++ {
			wi := wi
			rep := w.replicaFor(wi)
			w.rt.Go(func() {
				defer done.Send(struct{}{})
				for {
					if issued >= totalCount {
						return
					}
					issued++
					op := gens[wi].Next()
					opStart := w.rt.Now()
					collided, err := runYCSBOp(w, rep, op)
					if err != nil {
						// Hot-lock contention: back off before the next op,
						// as the paper's clients do (§III-A).
						w.rt.Sleep(time.Duration(100+w.rt.Rand().Intn(400)) * time.Millisecond)
						continue
					}
					completed++
					if collided {
						collisions++
					}
					lat.Observe(w.rt.Now() - opStart)
				}
			})
		}
		for wi := 0; wi < workers; wi++ {
			if _, err := done.RecvTimeout(time.Hour); err != nil {
				panic("bench: ycsb workers stuck")
			}
		}
		makespan := w.rt.Now() - start
		out.tp = float64(completed) / makespan.Seconds()
		out.meanLat = lat.Mean()
	})
	if completed > 0 {
		out.collisions = float64(collisions) / float64(completed)
	}
	return out
}

// runYCSBOp executes one YCSB op as a MUSIC critical section and reports
// whether it contended for the lock.
func runYCSBOp(w *musicWorld, rep *core.Replica, op ycsb.Op) (bool, error) {
	ref, err := rep.CreateLockRef(op.Key)
	if err != nil {
		return false, err
	}
	collided := false
	for {
		ok, acqErr := rep.AcquireLock(op.Key, ref)
		if acqErr != nil {
			return collided, acqErr
		}
		if ok {
			break
		}
		collided = true
		w.rt.Sleep(5 * time.Millisecond)
	}
	if op.Kind == ycsb.Update {
		if err := rep.CriticalPut(op.Key, ref, op.Value); err != nil {
			return collided, err
		}
	} else {
		if _, err := rep.CriticalGet(op.Key, ref); err != nil {
			return collided, err
		}
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
