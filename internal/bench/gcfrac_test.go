package bench

import (
	"runtime/metrics"
	"testing"
)

// gcMeter measures the share of the process's CPU time the garbage
// collector took between start and report, from the runtime's own
// estimates (/cpu/classes/gc/total over /cpu/classes/total). The runtime
// brings them up to date at each GC cycle, so a timed loop spanning many
// cycles reads them well.
type gcMeter struct{ gc, total float64 }

func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (m *gcMeter) start() { m.gc, m.total = cpuClasses() }

// report adds the GC share since start to b's results as gc-frac.
func (m *gcMeter) report(b *testing.B) {
	gc, total := cpuClasses()
	if total > m.total {
		b.ReportMetric((gc-m.gc)/(total-m.total), "gc-frac")
	}
}
