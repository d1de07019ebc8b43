package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// runFig8 reproduces Fig 8 (appendix §X-B1): the latency CDFs of MUSIC and
// MSCP critical sections on the 11 and IUs profiles, reported as quantiles.
func runFig8(opts Options) []Table {
	t := Table{
		ID:      "fig8",
		Title:   "Critical-section latency CDF quantiles (single thread)",
		Columns: []string{"System", "Profile", "p10", "p25", "p50", "p75", "p90", "p99"},
		Notes: []string{
			"paper: similar CDFs on 11; MUSIC ≈30% left of MSCP on IUs",
		},
	}
	iters := 150
	if opts.Quick {
		iters = 30
	}
	for _, mode := range []core.Mode{core.ModeQuorum, core.ModeLWT} {
		name := "MUSIC"
		if mode == core.ModeLWT {
			name = "MSCP"
		}
		for _, p := range []*simnet.Profile{simnet.Profile11, simnet.ProfileIUs} {
			opts.logf("  fig8: %s on %s", name, p.Name())
			w := buildMUSIC(p, 1, mode, 21)
			val := value(10)
			var row []string
			mustRun(w.rt, func() {
				res := measureLatency(w.rt, iters, 3, func(i int) error {
					return runCS(w.rt, w.reps[0], fmt.Sprintf("k-%d", i), 1, val)
				})
				row = []string{name, p.Name()}
				for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
					row = append(row, stats.FormatDuration(res.Hist.Quantile(q)))
				}
			})
			t.Rows = append(t.Rows, row)
		}
	}
	return []Table{t}
}
