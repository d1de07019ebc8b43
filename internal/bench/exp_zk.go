package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// measureMUSICWriteThroughput measures critical-section *writes* per second
// with the locking cost amortized over `batch` puts per section: each
// worker holds a long-running stream of critical sections on its own key,
// paying createLockRef/acquire/release once per batch (the Fig 6 shape).
func measureMUSICWriteThroughput(mode core.Mode, workersPerSite, batch, valSize int, opts Options) tpResult {
	w := buildMUSIC(simnet.ProfileIUs, 1, mode, 43)
	val := value(valSize)
	warm, window := throughputDurations(opts)

	type csState struct {
		ref   int64
		count int
		key   string
	}

	var res tpResult
	mustRun(w.rt, func() {
		workers := workersPerSite * len(w.reps)
		states := make([]csState, workers)
		res = measureThroughput(w.rt, workers, warm, window, func(worker, iter int) error {
			s := &states[worker]
			rep := w.replicaFor(worker)
			if s.key == "" {
				s.key = fmt.Sprintf("key-%04d", worker)
			}
			if s.ref == 0 {
				ref, _, err := lock(w.rt, rep, s.key, time.Millisecond)
				if err != nil {
					return err
				}
				s.ref, s.count = ref, 0
			}
			if err := rep.CriticalPut(s.key, s.ref, val); err != nil {
				return err
			}
			s.count++
			if s.count >= batch {
				ref := s.ref
				s.ref = 0
				return rep.ReleaseLock(s.key, ref)
			}
			return nil
		})
	})
	return res
}

// measureZKWriteThroughput measures ZooKeeper setData throughput: every
// worker updates its own znode; all writes funnel through the Zab leader
// (no locking — ZooKeeper's writes are already sequentially consistent, so
// batch size does not change its per-write cost).
func measureZKWriteThroughput(workersPerSite, valSize int, opts Options) tpResult {
	w, err := buildZK(simnet.ProfileIUs, 43)
	if err != nil {
		panic(fmt.Sprintf("bench: zk build: %v", err))
	}
	val := value(valSize)
	warm, window := throughputDurations(opts)

	var res tpResult
	mustRun(w.rt, func() {
		workers := workersPerSite * len(w.net.Nodes())
		// Pre-create the znodes.
		setup := w.c.Client(0)
		for i := 0; i < workers; i++ {
			if _, err := setup.Create(fmt.Sprintf("/key-%04d", i), nil, false); err != nil {
				panic(fmt.Sprintf("bench: zk create: %v", err))
			}
		}
		res = measureThroughput(w.rt, workers, warm, window, func(worker, iter int) error {
			cl := w.c.Client(simnet.NodeID(worker % len(w.net.Nodes())))
			_, err := cl.SetData(fmt.Sprintf("/key-%04d", worker), val, -1)
			return err
		})
	})
	return res
}

// runFig6a reproduces Fig 6(a): write throughput vs critical-section batch
// size for MUSIC, MSCP and ZooKeeper on IUs.
func runFig6a(opts Options) []Table {
	t := Table{
		ID:      "fig6a",
		Title:   "Write throughput (writes/s) vs batch size, IUs, 10B values",
		Columns: []string{"Batch", "MUSIC", "MSCP", "ZooKeeper", "MUSIC/ZK", "MUSIC/MSCP"},
		Notes: []string{
			"paper: ZK wins at batch 1 (~3K vs 885); locking amortizes with batch so MUSIC wins 1.4-2.3x by batch 10-1000 and 2-3.5x over MSCP",
		},
	}
	batches := []int{1, 10, 100, 1000}
	if opts.Quick {
		batches = []int{1, 10, 100}
	}
	// ZooKeeper's cost per write does not depend on the MUSIC batch size;
	// measure it once.
	opts.logf("  fig6a: zookeeper")
	zkRes := measureZKWriteThroughput(opts.workers(), 10, opts)
	for _, batch := range batches {
		opts.logf("  fig6a: batch %d", batch)
		music := measureMUSICWriteThroughput(core.ModeQuorum, opts.workers(), batch, 10, opts)
		mscp := measureMUSICWriteThroughput(core.ModeLWT, opts.workers(), batch, 10, opts)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", batch),
			fmtTP(music.PerSec), fmtTP(mscp.PerSec), fmtTP(zkRes.PerSec),
			fmtRatio(music.PerSec, zkRes.PerSec),
			fmtRatio(music.PerSec, mscp.PerSec),
		})
	}
	return []Table{t}
}

// runFig6b reproduces Fig 6(b): write throughput vs data size at batch 100.
func runFig6b(opts Options) []Table {
	t := Table{
		ID:      "fig6b",
		Title:   "Write throughput (writes/s) vs data size, IUs, batch 100",
		Columns: []string{"Data size", "MUSIC", "MSCP", "ZooKeeper", "MUSIC/ZK"},
		Notes: []string{
			"paper: MUSIC's lead over ZK grows with data size (2.45-17.17x); ZK's leader NIC and txn-log serialize every payload",
		},
	}
	sizes := []int{10, 1 << 10, 16 << 10, 256 << 10}
	if opts.Quick {
		sizes = []int{10, 16 << 10}
	}
	for _, size := range sizes {
		opts.logf("  fig6b: size %s", fmtBytes(size))
		music := measureMUSICWriteThroughput(core.ModeQuorum, opts.workers(), 100, size, opts)
		mscp := measureMUSICWriteThroughput(core.ModeLWT, opts.workers(), 100, size, opts)
		zkRes := measureZKWriteThroughput(opts.workers(), size, opts)
		t.Rows = append(t.Rows, []string{
			fmtBytes(size),
			fmtTP(music.PerSec), fmtTP(mscp.PerSec), fmtTP(zkRes.PerSec),
			fmtRatio(music.PerSec, zkRes.PerSec),
		})
	}
	return []Table{t}
}
