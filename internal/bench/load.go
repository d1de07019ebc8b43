package bench

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// tpResult is one throughput measurement.
type tpResult struct {
	Ops    int64
	PerSec float64
	Lat    *stats.Histogram
	Errors int64
}

// measureThroughput drives `workers` closed-loop generators against work
// for warmup+window of virtual time and counts operations completing inside
// the window. It must be called from inside the simulation.
func measureThroughput(rt *sim.Virtual, workers int, warmup, window time.Duration, work func(worker, iter int) error) tpResult {
	res := tpResult{Lat: stats.NewHistogram()}
	warmEnd := rt.Now() + warmup
	measureEnd := warmEnd + window
	stopped := false

	for w := 0; w < workers; w++ {
		w := w
		rt.Go(func() {
			for i := 0; !stopped; i++ {
				start := rt.Now()
				err := work(w, i)
				end := rt.Now()
				if end > measureEnd {
					return
				}
				if end <= warmEnd {
					continue
				}
				if err != nil {
					res.Errors++
					continue
				}
				res.Ops++
				res.Lat.Observe(end - start)
			}
		})
	}
	rt.Sleep(warmup + window)
	stopped = true
	res.PerSec = float64(res.Ops) / window.Seconds()
	return res
}

// latResult is one latency measurement.
type latResult struct {
	Hist   *stats.Histogram
	Errors int
}

// measureLatency runs `iters` sequential operations on a single worker
// (the paper's single-thread latency methodology), discarding `discard`
// warmup iterations.
func measureLatency(rt *sim.Virtual, iters, discard int, work func(iter int) error) latResult {
	res := latResult{Hist: stats.NewHistogram()}
	for i := 0; i < iters+discard; i++ {
		start := rt.Now()
		err := work(i)
		if err != nil {
			res.Errors++
			continue
		}
		if i >= discard {
			res.Hist.Observe(rt.Now() - start)
		}
	}
	return res
}

// drain runs `workers` closed-loop tasks that share a budget of `total`
// operations — YCSB's operationcount — and returns the makespan once the
// budget is spent and every task has finished. newWorker(w) builds task w's
// operation before the task starts; each run of it consumes one unit of the
// budget. It must be called from inside the simulation.
func drain(rt *sim.Virtual, workers, total int, newWorker func(w int) func()) time.Duration {
	issued := 0
	done := sim.NewMailbox[struct{}](rt)
	start := rt.Now()
	for w := 0; w < workers; w++ {
		op := newWorker(w)
		rt.Go(func() {
			defer done.Send(struct{}{})
			for issued < total {
				issued++
				op()
			}
		})
	}
	for w := 0; w < workers; w++ {
		if _, err := done.RecvTimeout(time.Hour); err != nil {
			panic("bench: closed-loop workers stuck")
		}
	}
	return rt.Now() - start
}

// mustRun runs fn inside r's simulation and turns a simulator failure into
// a panic (benchmark plumbing, not measured behaviour).
func mustRun(r interface{ Run(func()) error }, fn func()) {
	if err := r.Run(fn); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}

// fmtTP renders an ops/sec figure.
func fmtTP(v float64) string {
	switch {
	case v >= 10000:
		return fmt.Sprintf("%.1fK", v/1000)
	case v >= 1000:
		return fmt.Sprintf("%.2fK", v/1000)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// fmtRatio renders a speedup ratio.
func fmtRatio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
