package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/store"
)

// runAblation quantifies the two design choices §III-A and §IV-B motivate
// (not a paper figure — DESIGN.md's ablation index):
//
//   - the synchFlag "dirty bit": without it, every grant pays the full
//     synchronization (a value quorum read plus two quorum writes);
//   - the local lsPeek: without it, every acquire poll and critical-op
//     guard is a quorum round trip, which also multiplies back-end load
//     while clients wait for contended locks.
func runAblation(opts Options) []Table {
	iters, discard := latencyIters(opts)

	variant := func(name string, cfg core.Config) []string {
		rt := sim.New(31)
		net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
		st := store.New(net, store.Config{})
		cfg.T = 10 * time.Minute
		rep0 := core.NewReplica(st.Client(0), cfg)
		rep1 := core.NewReplica(st.Client(1), cfg)

		var csMean, contendedMean time.Duration
		mustRun(rt, func() {
			// Uncontended critical-section latency.
			res := measureLatency(rt, iters, discard, func(i int) error {
				return runCS(rt, rep0, fmt.Sprintf("u-%d", i), 1, value(10))
			})
			if res.Errors > 0 {
				panic(fmt.Sprintf("bench: ablation %s: %d errors", name, res.Errors))
			}
			csMean = res.Hist.Mean()

			// Contended acquisition: a waiter polls while a holder occupies
			// the lock for 300ms, so peek costs accrue per poll.
			res = measureLatency(rt, iters, discard, func(i int) error {
				key := fmt.Sprintf("c-%d", i)
				ref0, _, err := lock(rt, rep0, key, time.Millisecond)
				if err != nil {
					return err
				}
				rt.Go(func() {
					rt.Sleep(300 * time.Millisecond)
					_ = rep0.ReleaseLock(key, ref0)
				})
				// The measured client waits behind the holder.
				ref1, _, err := lock(rt, rep1, key, 5*time.Millisecond)
				if err != nil {
					return err
				}
				if err := rep1.CriticalPut(key, ref1, value(10)); err != nil {
					return err
				}
				return rep1.ReleaseLock(key, ref1)
			})
			if res.Errors > 0 {
				panic(fmt.Sprintf("bench: ablation %s contended: %d errors", name, res.Errors))
			}
			contendedMean = res.Hist.Mean()
		})
		return []string{name, stats.FormatDuration(csMean), stats.FormatDuration(contendedMean)}
	}

	t := Table{
		ID:      "ablation",
		Title:   "Design-choice ablations, IUs (critical-section latency)",
		Columns: []string{"Variant", "Uncontended CS", "Contended CS (300ms holder)"},
		Notes: []string{
			"synchFlag off = full synchronization on every grant (§IV-B); local peek off = quorum reads for every poll (§III-A)",
		},
	}
	t.Rows = append(t.Rows, variant("MUSIC (baseline)", core.Config{}))
	t.Rows = append(t.Rows, variant("no synchFlag (always synchronize)", core.Config{AlwaysSynchronize: true}))
	t.Rows = append(t.Rows, variant("no local peek (quorum peeks)", core.Config{QuorumPeek: true}))
	return []Table{t}
}
