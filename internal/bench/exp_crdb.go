package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// crdbCSLatency measures the mean latency of one CockroachDB-recipe
// critical section (§X-B3): lock-acquiring txn, `batch` per-update
// exclusive txns, lock-releasing txn — each costing two consensus rounds.
func crdbCSLatency(batch, valSize, iters int, opts Options) time.Duration {
	w, err := buildCRDB(simnet.ProfileIUs, 17)
	if err != nil {
		panic(fmt.Sprintf("bench: crdb build: %v", err))
	}
	val := value(valSize)
	var mean time.Duration
	mustRun(w.rt, func() {
		if _, err := w.c.Raft().WaitForLeader(time.Minute); err != nil {
			panic(fmt.Sprintf("bench: crdb leader: %v", err))
		}
		cl := w.c.Client(0)
		res := measureLatency(w.rt, iters, 1, func(i int) error {
			lockKey := fmt.Sprintf("lock-%d", i)
			owner := "bench"
			if err := cl.AcquireCS(lockKey, owner); err != nil {
				return err
			}
			for b := 0; b < batch; b++ {
				if err := cl.UpdateCS(lockKey, owner, fmt.Sprintf("k-%d-%d", i, b), val); err != nil {
					return err
				}
			}
			return cl.ReleaseCS(lockKey, owner)
		})
		if res.Errors > 0 {
			panic(fmt.Sprintf("bench: crdb cs: %d errors", res.Errors))
		}
		mean = res.Hist.Mean()
	})
	return mean
}

// musicCSLatency measures the mean latency of one MUSIC critical section
// with `batch` criticalPuts.
func musicCSLatency(batch, valSize, iters int, opts Options) time.Duration {
	w := buildMUSIC(simnet.ProfileIUs, 1, core.ModeQuorum, 17)
	val := value(valSize)
	var mean time.Duration
	mustRun(w.rt, func() {
		res := measureLatency(w.rt, iters, 1, func(i int) error {
			return runCS(w.rt, w.reps[0], fmt.Sprintf("k-%d", i), batch, val)
		})
		if res.Errors > 0 {
			panic(fmt.Sprintf("bench: music cs: %d errors", res.Errors))
		}
		mean = res.Hist.Mean()
	})
	return mean
}

func crdbIters(batch int, opts Options) int {
	if opts.Quick {
		return 3
	}
	switch {
	case batch >= 1000:
		return 3
	case batch >= 100:
		return 5
	default:
		return 10
	}
}

// runFig7a reproduces Fig 7(a): single-thread critical-section latency vs
// batch size, MUSIC vs the CockroachDB recipe.
func runFig7a(opts Options) []Table {
	t := Table{
		ID:      "fig7a",
		Title:   "Critical-section latency vs batch size (single thread, IUs, 10B)",
		Columns: []string{"Batch", "MUSIC", "CockroachDB CS", "Cdb/MUSIC"},
		Notes: []string{
			"paper: MUSIC 2-4x faster; §X-B4 predicts 2·x·C vs 2C+(x+1)·Q ≈ 2x for large x",
		},
	}
	batches := []int{1, 10, 100, 1000}
	if opts.Quick {
		batches = []int{1, 10, 100}
	}
	for _, batch := range batches {
		opts.logf("  fig7a: batch %d", batch)
		iters := crdbIters(batch, opts)
		music := musicCSLatency(batch, 10, iters, opts)
		cdb := crdbCSLatency(batch, 10, iters, opts)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", batch),
			stats.FormatDuration(music), stats.FormatDuration(cdb),
			fmt.Sprintf("%.2fx", float64(cdb)/float64(music)),
		})
	}
	return []Table{t}
}

// runFig7b reproduces Fig 7(b): the same comparison vs data size, batch 100.
func runFig7b(opts Options) []Table {
	t := Table{
		ID:      "fig7b",
		Title:   "Critical-section latency vs data size (single thread, IUs, batch 100)",
		Columns: []string{"Data size", "MUSIC", "CockroachDB CS", "Cdb/MUSIC"},
		Notes: []string{
			"paper: MUSIC stays 2-4x faster as data grows",
		},
	}
	sizes := []int{10, 1 << 10, 16 << 10, 256 << 10}
	if opts.Quick {
		sizes = []int{10, 16 << 10}
	}
	for _, size := range sizes {
		opts.logf("  fig7b: size %s", fmtBytes(size))
		iters := crdbIters(100, opts)
		music := musicCSLatency(100, size, iters, opts)
		cdb := crdbCSLatency(100, size, iters, opts)
		t.Rows = append(t.Rows, []string{
			fmtBytes(size),
			stats.FormatDuration(music), stats.FormatDuration(cdb),
			fmt.Sprintf("%.2fx", float64(cdb)/float64(music)),
		})
	}
	return []Table{t}
}
