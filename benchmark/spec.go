package main

// metric is one row of the metric dictionary.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// OwnClock marks an end-to-end metric measured on the workload's own
	// clock: on the virtual-time workloads it is a function of the seed
	// alone and carries virtualBound instead of Bound.
	OwnClock bool
	// Bound is the regression bound of an end-to-end metric wherever it is a
	// wall-clock number, and the one bound BENCHMARK.json has room for.
	Bound float64
	// On lists the workloads the metric is defined for; nil means all. The
	// driver that gates the benchmark wants every metric from every
	// workload, so the others report it too (result line and -compare mark
	// those pairings): the same quantity where the workload has it, and for
	// handoff_us_*, where nothing ever queues, the grant time with nobody
	// to wait for.
	On   []string
	What string
}

// listedOn reports whether w is one of the workloads m is defined for.
func (m metric) listedOn(w workload) bool {
	if m.On == nil {
		return true
	}
	for _, name := range m.On {
		if name == w.Name {
			return true
		}
	}
	return false
}

// Units of the workload's clock: virtual on wan_*, wall on tcp_*.
const (
	unitMicros = "us"
	unitPerSec = "1/s"
	unitRatio  = "ratio"
	unitCount  = "count"
)

// The regression bounds: the share of the base's median by which a metric
// may get worse. -compare applies one per workload × metric (boundFor).
// BENCHMARK.json has room for one per metric, and the driver that reads it
// holds all five workloads to it and first checks that ten runs with ten
// seeds spread no wider; every metric is a wall-clock number on some
// workload, so the file carries the metric's wall-clock bound and cannot
// carry virtualBound.
const (
	// virtualBound: on virtual time one seed repeats to the digit and ten
	// seeds of wan_section agree within 0.1 %, so 1 % is a fraction of the
	// shortest WAN round.
	virtualBound = 0.01
	// wallBound is the ceiling the issue sets for wall-clock numbers. On the
	// reference clock (yardstick.go) ten runs of a median, a throughput or
	// the CPU per section spread 2–7 % between their quartiles.
	wallBound = 0.15
	// looseBound, the most the driver allows, is for what spreads about a
	// tenth whatever the clock: tails, the hand-off under contention (which
	// differs that much between seeds), reuse_slowdown (a ratio of two
	// short samples), set-up (a tenth of a second of work), and put_us_p50,
	// because the one put of a tcp_section section runs at one of two
	// speeds a seventh apart for a whole run (on tcp_held, whose puts it is
	// defined on, ten runs spread 3–5 %).
	looseBound = 0.25
)

const setupS = "setup_s"

// endToEndMetrics is what a user of the system sees.
var endToEndMetrics = []metric{
	{Name: setupS, Unit: "s", Better: "lower", Bound: looseBound,
		What: "wall time to deploy, preload and warm up; the median of the run's set-ups"},
	{Name: "section_us_p50", Unit: unitMicros, Better: "lower", OwnClock: true, Bound: wallBound,
		What: "whole section, CreateLockRef called → ReleaseLock returned, median"},
	{Name: "section_us_p99", Unit: unitMicros, Better: "lower", OwnClock: true, Bound: looseBound, On: []string{"wan_section", "wan_contended"},
		What: "whole section at the highest percentile ≤ p99 with ten samples per client beyond it (p90 on wan_contended); wall-clock tails on a shared host do not repeat within a tenth"},
	{Name: "sections_per_s", Unit: unitPerSec, Better: "higher", OwnClock: true, Bound: wallBound,
		What: "completed sections per second of the workload's clock, over the whole measured interval"},
	{Name: "get_us_p50", Unit: unitMicros, Better: "lower", OwnClock: true, Bound: wallBound, On: []string{"wan_section", "tcp_held"},
		What: "CriticalGet inside a held section, median"},
	{Name: "put_us_p50", Unit: unitMicros, Better: "lower", OwnClock: true, Bound: looseBound, On: []string{"wan_section", "tcp_held"},
		What: "CriticalPut inside a held section, median"},
	{Name: "ops_per_s", Unit: unitPerSec, Better: "higher", OwnClock: true, Bound: wallBound, On: []string{"tcp_held"},
		What: "critical gets and puts per second of the workload's clock, over the whole measured interval"},
	{Name: "handoff_us_p50", Unit: unitMicros, Better: "lower", OwnClock: true, Bound: looseBound, On: []string{"wan_contended"},
		What: "previous holder's ReleaseLock returned → next holder's AwaitLock returned for the same key, counted only when the next lockRef was created before that release"},
	{Name: "handoff_us_p99", Unit: unitMicros, Better: "lower", OwnClock: true, Bound: looseBound, On: []string{"wan_contended"},
		What: "the same interval at the highest supported percentile ≤ p99"},
	{Name: "section_cpu_us", Unit: unitMicros, Better: "lower", Bound: wallBound, On: []string{"tcp_section", "tcp_held", "tcp_reuse"},
		What: "process user+system CPU (getrusage) per section: the capacity cost a latency win may hide"},
	{Name: "reuse_slowdown", Unit: unitRatio, Better: "lower", OwnClock: true, Bound: looseBound, On: []string{"tcp_reuse"},
		What: "median latency of the last tenth of a window's sections ÷ its first tenth (tcp_reuse: sections 3601–4000 ÷ 1–400); host speed cancels"},
}

// failedOpsFrac is the twelfth end-to-end number: failed or refused
// operations ÷ attempted. It is reported in every result and gated by
// -compare (it must not rise), but it is 0 by design, so it cannot carry a
// relative bound in BENCHMARK.json; there it travels as the result line's
// own `failed` and `attempted`.
const failedOpsFrac = "failed_ops_frac"

// layerMetrics is the per-layer account of a traced run, layer = module
// name. Every workload reports every one of them; a layer a workload does
// not run on reports 0.
var layerMetrics = []metric{
	{Name: "music.createLockRef_us_p50", Unit: unitMicros, What: "music.Client.CreateLockRef"},
	{Name: "music.acquireLock_us_p50", Unit: unitMicros, What: "music.Client.AwaitLock"},
	{Name: "music.criticalPut_us_p50", Unit: unitMicros, What: "music.Client.CriticalPut"},
	{Name: "music.criticalGet_us_p50", Unit: unitMicros, What: "music.Client.CriticalGet"},
	{Name: "music.releaseLock_us_p50", Unit: unitMicros, What: "music.Client.ReleaseLock"},
	{Name: "music.section_us_p50", Unit: unitMicros, What: "traced whole section through music.Client; the five medians above should sum to within a tenth of it"},
	{Name: "music.section_us_p99", Unit: unitMicros, What: "traced section tail (the ungated wall-clock tail on tcp_*)"},
	{Name: "music.section_us_p50_first_decile", Unit: unitMicros, What: "section median over the first tenth of a window's sections (either path), median of the windows"},
	{Name: "music.section_us_p50_last_decile", Unit: unitMicros, What: "the same over the last tenth; on tcp_reuse the two are the ends of the tombstone-growth curve"},
	{Name: "music.closure_frac", Unit: unitRatio, What: "Σ of the medians of the operations one section issues ÷ music.section_us_p50: how far the account closes"},
	{Name: "core.createLockRef_us_p50", Unit: unitMicros, What: "core.Replica.CreateLockRef, alternate sections"},
	{Name: "core.acquireLock_us_p50", Unit: unitMicros, What: "core.Replica.AcquireLock polled to grant"},
	{Name: "core.criticalPut_us_p50", Unit: unitMicros, What: "core.Replica.CriticalPut"},
	{Name: "core.criticalGet_us_p50", Unit: unitMicros, What: "core.Replica.CriticalGet"},
	{Name: "core.releaseLock_us_p50", Unit: unitMicros, What: "core.Replica.ReleaseLock"},
	{Name: "lockstore.enqueue_us_p50", Unit: unitMicros, What: "lockstore.GenerateAndEnqueue on a fresh row"},
	{Name: "lockstore.peek_us_p50", Unit: unitMicros, What: "lockstore.Peek (ONE read)"},
	{Name: "lockstore.setGrantLWT_us_p50", Unit: unitMicros, What: "lockstore.SetGrantLWT"},
	{Name: "lockstore.dequeue_us_p50", Unit: unitMicros, What: "lockstore.Dequeue"},
	{Name: "store.put_quorum_us_p50", Unit: unitMicros, What: "store.Client.Put, 256 B cell, QUORUM"},
	{Name: "store.get_quorum_us_p50", Unit: unitMicros, What: "store.Client.Get, QUORUM"},
	{Name: "store.get_one_us_p50", Unit: unitMicros, What: "store.Client.Get, ONE"},
	{Name: "store.cas_us_p50", Unit: unitMicros, What: "store.Client.CAS, one applied LWT"},
	{Name: "store.put_quorum_allocs", Unit: unitCount, What: "process mallocs per quorum put"},
	{Name: "store.get_quorum_allocs", Unit: unitCount, What: "process mallocs per quorum get"},
	{Name: "store.cas_allocs", Unit: unitCount, What: "process mallocs per CAS"},
	{Name: "store.serve_apply_us_p50", Unit: unitMicros, What: "replica-side store.apply handler"},
	{Name: "store.serve_read_us_p50", Unit: unitMicros, What: "replica-side store.read handler"},
	{Name: "store.serve_paxos_us_p50", Unit: unitMicros, What: "replica-side prepare/propose/commit handlers"},
	{Name: "paxos.rounds_per_section", Unit: unitCount, What: "store.prepare+propose+commit multicasts per section"},
	{Name: "paxos.prepares_per_section", Unit: unitCount, What: "store.prepare multicasts per section (one per LWT attempt)"},
	{Name: "nettrans.rpcs_per_section", Unit: unitCount, What: "Call/CallTimeout invocations per section"},
	{Name: "nettrans.multicasts_per_section", Unit: unitCount, What: "Multicast invocations per section"},
	{Name: "nettrans.bytes_per_section", Unit: "B", What: "request+reply payload and frame-prefix bytes per section"},
	{Name: "nettrans.bytes_per_section_first_decile", Unit: "B", What: "the same over the first tenth of a window's sections, median of the windows"},
	{Name: "nettrans.bytes_per_section_last_decile", Unit: "B", What: "the same over the last tenth"},
	{Name: "nettrans.call_us_p50", Unit: unitMicros, What: "256 B echo RPC, first site → second site"},
	{Name: "nettrans.time_us_per_section", Unit: unitMicros, What: "Σ caller-side time of every call and multicast, per section"},
	{Name: "nettrans.self_us_per_section", Unit: unitMicros, What: "that time minus one median handler run per invocation: socket + codec + scheduling"},
	{Name: "wire.marshal_ns_per_msg", Unit: "ns", What: "wire.Marshal over the messages the wrapper captured"},
	{Name: "wire.unmarshal_ns_per_msg", Unit: "ns", What: "wire.Unmarshal over the same"},
	{Name: "wire.bytes_per_msg", Unit: "B", What: "mean encoded size of a captured message"},
	{Name: "simnet.msgs_per_section", Unit: unitCount, What: "requests+replies the simulated fabric carried per section (0 on tcp_*)"},
	{Name: "sim.wall_us_per_section", Unit: unitMicros, What: "wall time the run took per section: the simulator's own cost on wan_*"},
	{Name: "httpapi.section_us_p50", Unit: unitMicros, What: "Table I section on a fresh key through httpapi.New"},
	{Name: "httpapi.overhead_us", Unit: unitMicros, What: "that minus the same section through music.Client, interleaved"},
	{Name: "process.allocs_per_section", Unit: unitCount, What: "process mallocs per section, untraced pass"},
	{Name: "process.alloc_bytes_per_section", Unit: "B", What: "bytes allocated per section, untraced pass"},
	{Name: "process.gc_cpu_frac", Unit: unitRatio, What: "runtime.MemStats.GCCPUFraction at the end of the run"},
	{Name: "process.rss_mb_end", Unit: "MB", What: "resident set at the end of the run"},
	{Name: "trace.overhead_frac", Unit: unitRatio, What: "traced ÷ untraced section_us_p50"},
}

// onVirtualClock reports whether m on w is a function of the seed alone.
func onVirtualClock(m metric, w workload) bool { return w.Plane == planeWAN && m.OwnClock }

// boundFor is the regression bound of an end-to-end metric on a workload.
func boundFor(m metric, w workload) float64 {
	if onVirtualClock(m, w) {
		return virtualBound
	}
	return m.Bound
}
